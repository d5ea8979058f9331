//! Golden digests of the ten BPR-trained baselines.
//!
//! Each digest is FNV-1a over a model's per-epoch loss bits followed by the
//! bits of every user's `score_items`, after two epochs on a traditional
//! split (dataset and split seed 42). The constants were computed before the
//! ten models shared one training loop, so a change that moves any bit of
//! training or scoring fails here.

use kucnet_baselines::{
    BaselineConfig, Ckan, Cke, Fm, Kgat, Kgin, KgnnLs, Mf, Nfm, Rgcn, RippleNet,
};
use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, UserId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Trains `model` for two epochs and returns its losses and the fitted model.
fn train(model: &str, ckg: Ckg) -> (Vec<f32>, Box<dyn Recommender>) {
    let cfg = BaselineConfig::default().with_epochs(2);
    match model {
        "MF" => {
            let mut m = Mf::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "FM" => {
            let mut m = Fm::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "NFM" => {
            let mut m = Nfm::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "CKE" => {
            let mut m = Cke::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "RippleNet" => {
            let mut m = RippleNet::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "KGNN-LS" => {
            let mut m = KgnnLs::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "CKAN" => {
            let mut m = Ckan::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "KGIN" => {
            let mut m = Kgin::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "R-GCN" => {
            let mut m = Rgcn::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        "KGAT" => {
            let mut m = Kgat::new(cfg, ckg);
            (m.fit(), Box::new(m))
        }
        other => panic!("unknown model {other}"),
    }
}

fn check(profile: DatasetProfile, golden: &[(&str, u64)]) {
    let data = GeneratedDataset::generate(&profile, 42);
    let split = traditional_split(&data, 0.2, 42);
    let ckg = data.build_ckg(&split.train);
    let mut mismatches = Vec::new();
    for &(name, want) in golden {
        let (losses, model) = train(name, ckg.clone());
        let mut h = FNV_OFFSET;
        for loss in &losses {
            h = fnv1a(h, &loss.to_bits().to_le_bytes());
        }
        for u in 0..ckg.n_users() as u32 {
            for s in model.score_items(UserId(u)) {
                h = fnv1a(h, &s.to_bits().to_le_bytes());
            }
        }
        if h != want {
            mismatches.push(format!("{name}: got {h:#018x}, want {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}: {}", profile.name, mismatches.join("; "));
}

#[test]
fn tiny_digests_match_golden() {
    check(
        DatasetProfile::tiny(),
        &[
            ("MF", 0x763b_41b2_6f1c_0caf),
            ("FM", 0xd930_a833_bd56_2f48),
            ("NFM", 0x2f3f_7419_fda3_b28b),
            ("CKE", 0x5c11_7729_cf5a_1b6c),
            ("RippleNet", 0x63eb_0d79_6ef6_91a9),
            ("KGNN-LS", 0x80fe_b26b_a1ea_aac2),
            ("CKAN", 0xfd70_9716_85e7_b292),
            ("KGIN", 0x86b4_918d_7ab8_5d5c),
            ("R-GCN", 0x14e5_96eb_d719_28cb),
            ("KGAT", 0x3ad4_b2c2_6d4c_5424),
        ],
    );
}

#[test]
fn lastfm_small_digests_match_golden() {
    check(
        DatasetProfile::lastfm_small(),
        &[
            ("MF", 0x0c02_6633_7513_b0cb),
            ("FM", 0xc707_a48e_d656_a54b),
            ("NFM", 0x83a2_3b04_c1fd_833c),
            ("CKE", 0xd685_fe14_7d19_bff5),
            ("RippleNet", 0xe177_d197_bb84_e211),
            ("KGNN-LS", 0xfb92_4f18_a866_ff91),
            ("CKAN", 0x4de4_d1a8_6b1d_7dcd),
            ("KGIN", 0xac3b_b192_37d7_21a6),
            ("R-GCN", 0x54f6_44f6_a493_8057),
            ("KGAT", 0xccd7_1724_8ced_5a37),
        ],
    );
}
