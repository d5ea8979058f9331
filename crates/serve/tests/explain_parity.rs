//! Live `/explain` parity suite: the DOT and text explanations served over
//! HTTP must be **byte-identical** to the offline fig7-style extraction
//! (`kucnet::explain(...).to_dot(...)`) for pinned `(user, item)` pairs —
//! at `batch_threads = 1` and `batch_threads = 8` alike. Explanations are
//! an audit artifact; any drift between the paper-figure path and the live
//! endpoint would make served explanations unciteable.

use std::sync::Arc;

use kucnet::{explain, KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_graph::{ItemId, UserId};
use kucnet_serve::client::{post, str_field, u64_field};
use kucnet_serve::{ServeConfig, Server};

/// Trains the pinned tiny model and picks the 5 pinned `(user, item)`
/// pairs: the first 5 users with at least one interaction, paired with
/// their first interacted item.
fn trained_model_and_pairs() -> (KucNet, Vec<(UserId, ItemId)>) {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let mut model = KucNet::new(KucNetConfig::default().with_epochs(2), ckg);
    model.fit();

    let mut pairs: Vec<(UserId, ItemId)> = Vec::new();
    let mut next_user = 0u32;
    for &(user, item) in &data.interactions {
        if user.0 == next_user {
            pairs.push((user, item));
            next_user += 1;
            if pairs.len() == 5 {
                break;
            }
        }
    }
    assert_eq!(pairs.len(), 5, "tiny profile must yield 5 pinned pairs");
    (model, pairs)
}

#[test]
fn live_explain_is_byte_identical_to_offline_dot_extraction() {
    // threshold_milli 200 mirrors the fig7 fallback threshold of 0.2.
    const THRESHOLD_MILLI: u16 = 200;
    let threshold = f32::from(THRESHOLD_MILLI) / 1000.0;

    let (model, pairs) = trained_model_and_pairs();
    // Offline references, straight from the paper-figure extraction path.
    let offline: Vec<(String, String, usize)> = pairs
        .iter()
        .map(|&(user, item)| {
            let explanation = explain(&model, user, item, threshold);
            let ckg = model.ckg();
            (explanation.to_dot(ckg), explanation.to_text(ckg), explanation.edges.len())
        })
        .collect();
    assert!(
        offline.iter().any(|(_, _, n)| *n > 0),
        "pinned pairs must produce at least one non-empty explanation"
    );

    let service: Arc<dyn ScoreService> = Arc::new(model);
    for batch_threads in [1usize, 8] {
        let config = ServeConfig { batch_threads, ..ServeConfig::default() };
        let handle =
            Server::start(Arc::clone(&service), config, "127.0.0.1:0").expect("bind server");
        let addr = handle.addr();

        for (&(user, item), (dot, text, n_edges)) in pairs.iter().zip(&offline) {
            let resp = post(
                addr,
                "/explain",
                &format!(
                    "{{\"user\": {}, \"item\": {}, \"threshold_milli\": {THRESHOLD_MILLI}}}",
                    user.0, item.0
                ),
            )
            .expect("post");
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(
                str_field(&resp.body, "dot").expect("dot"),
                *dot,
                "DOT drifted from offline extraction for (user {}, item {}) at \
                 batch_threads={batch_threads}",
                user.0,
                item.0
            );
            assert_eq!(
                str_field(&resp.body, "text").expect("text"),
                *text,
                "text drifted for (user {}, item {})",
                user.0,
                item.0
            );
            assert_eq!(u64_field(&resp.body, "n_edges"), Some(*n_edges as u64));
            assert_eq!(u64_field(&resp.body, "model_version"), Some(1));
            assert_eq!(u64_field(&resp.body, "threshold_milli"), Some(u64::from(THRESHOLD_MILLI)));
        }
        handle.shutdown();
    }
}

#[test]
fn explain_validates_inputs_and_default_threshold() {
    let (model, pairs) = trained_model_and_pairs();
    let default_threshold = 0.5; // server's DEFAULT_THRESHOLD_MILLI = 500
    let (user, item) = pairs[0];
    let expected = {
        let explanation = explain(&model, user, item, default_threshold);
        explanation.to_dot(model.ckg())
    };
    let n_users = model.n_users() as u64;
    let n_items = model.n_items() as u64;

    let service: Arc<dyn ScoreService> = Arc::new(model);
    let handle =
        Server::start(service, ServeConfig::default(), "127.0.0.1:0").expect("bind server");
    let addr = handle.addr();

    // Omitted threshold_milli falls back to 500 (= 0.5).
    let resp = post(addr, "/explain", &format!("{{\"user\": {}, \"item\": {}}}", user.0, item.0))
        .expect("post");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(str_field(&resp.body, "dot").expect("dot"), expected);
    assert_eq!(u64_field(&resp.body, "threshold_milli"), Some(500));

    // Out-of-range user → 404; out-of-range item or threshold → 400.
    let resp =
        post(addr, "/explain", &format!("{{\"user\": {n_users}, \"item\": 0}}")).expect("post");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp =
        post(addr, "/explain", &format!("{{\"user\": 0, \"item\": {n_items}}}")).expect("post");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = post(addr, "/explain", "{\"user\": 0, \"item\": 0, \"threshold_milli\": 1001}")
        .expect("post");
    assert_eq!(resp.status, 400, "{}", resp.body);

    handle.shutdown();
}
