//! Property-based gradient checking: analytic gradients from the tape must
//! match central finite differences for every differentiable op.

use kucnet_tensor::{add_row_broadcast, gather_rows, Matrix, Tape, Var};
use proptest::prelude::*;

const EPS: f32 = 1e-3;
const TOL: f32 = 2e-2;

/// Builds a scalar loss from input leaves via `f`, then compares the tape
/// gradient of each input element against a central finite difference.
fn check_grad(inputs: &[Matrix], f: impl Fn(&Tape, &[Var]) -> Var) {
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let loss = f(&tape, &vars);
    assert_eq!(tape.shape(loss), (1, 1), "loss must be scalar");
    tape.backward(loss);
    let analytic: Vec<Option<Matrix>> = vars.iter().map(|&v| tape.grad(v)).collect();

    for (which, input) in inputs.iter().enumerate() {
        let ga =
            analytic[which].clone().unwrap_or_else(|| Matrix::zeros(input.rows(), input.cols()));
        for idx in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[which].data_mut()[idx] += EPS;
            let mut minus = inputs.to_vec();
            minus[which].data_mut()[idx] -= EPS;
            let eval = |ins: &[Matrix]| -> f32 {
                let t = Tape::new();
                let vs: Vec<Var> = ins.iter().map(|m| t.leaf(m.clone())).collect();
                let l = f(&t, &vs);
                t.value(l).get(0, 0)
            };
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * EPS);
            let a = ga.data()[idx];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < TOL,
                "input {which} elem {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Values bounded away from 0 so finite differences never straddle the
/// ReLU/leaky-ReLU kink (where the numeric gradient is ill-defined).
fn kink_free_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec((0.05f32..1.5, proptest::bool::ANY), rows * cols).prop_map(move |v| {
        let data = v.into_iter().map(|(m, neg)| if neg { -m } else { m }).collect();
        Matrix::from_vec(rows, cols, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_add_mul_chain(a in small_matrix(3, 4), b in small_matrix(3, 4)) {
        check_grad(&[a, b], |t, v| {
            let s = t.add(v[0], v[1]);
            let p = t.mul(s, v[0]);
            t.sum_all(p)
        });
    }

    #[test]
    fn grad_matmul(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        check_grad(&[a, b], |t, v| {
            let y = t.matmul(v[0], v[1]);
            t.sum_all(t.square(y))
        });
    }

    #[test]
    fn grad_activations(a in kink_free_matrix(2, 5)) {
        check_grad(&[a], |t, v| {
            let r = t.relu(v[0]);
            let s = t.sigmoid(r);
            let h = t.tanh(s);
            t.mean_all(h)
        });
    }

    #[test]
    fn grad_softplus_bpr(a in small_matrix(4, 1), b in small_matrix(4, 1)) {
        check_grad(&[a, b], |t, v| {
            let diff = t.sub(v[0], v[1]);
            let nd = t.neg(diff);
            let l = t.softplus(nd);
            t.sum_all(l)
        });
    }

    #[test]
    fn grad_gather_scatter(a in small_matrix(5, 3)) {
        check_grad(&[a], |t, v| {
            let g = t.gather_rows(v[0], &[0, 2, 2, 4, 1]);
            let s = t.scatter_add_rows(g, &[0, 1, 0, 2, 1], 3);
            t.sum_all(t.square(s))
        });
    }

    #[test]
    fn grad_broadcasts(a in small_matrix(4, 3), bias in small_matrix(1, 3), s in small_matrix(4, 1)) {
        check_grad(&[a, bias, s], |t, v| {
            let y = t.add_row_broadcast(v[0], v[1]);
            let z = t.mul_col_broadcast(y, v[2]);
            t.sum_all(z)
        });
    }

    #[test]
    fn grad_div(a in small_matrix(2, 3), b in proptest::collection::vec(0.5f32..2.0, 6)) {
        let b = Matrix::from_vec(2, 3, b);
        check_grad(&[a, b], |t, v| {
            let y = t.div(v[0], v[1]);
            t.sum_all(y)
        });
    }

    #[test]
    fn grad_exp_ln(a in proptest::collection::vec(0.3f32..2.0, 6)) {
        let a = Matrix::from_vec(2, 3, a);
        check_grad(&[a], |t, v| {
            let e = t.exp(v[0]);
            let l = t.ln(e);
            t.sum_all(t.mul(l, l))
        });
    }

    #[test]
    fn grad_leaky_relu_sum_rows(a in kink_free_matrix(3, 4)) {
        check_grad(&[a], |t, v| {
            let lr = t.leaky_relu(v[0], 0.2);
            let sr = t.sum_rows(lr);
            t.sum_all(t.square(sr))
        });
    }

    #[test]
    fn grad_concat(a in small_matrix(2, 3), b in small_matrix(3, 3)) {
        check_grad(&[a, b], |t, v| {
            let c = t.concat_rows(v[0], v[1]);
            t.mean_all(t.square(c))
        });
    }

    #[test]
    fn grad_attention_like_block(
        hs in small_matrix(6, 4),
        hr in small_matrix(6, 4),
        was in small_matrix(4, 3),
        war in small_matrix(4, 3),
        wa in small_matrix(3, 1),
    ) {
        // The attention computation of KUCNet Eq. (6) with tanh in place of
        // the inner ReLU (same graph shape; ReLU's kink makes central
        // differences ill-defined at projected zeros, so it is gradchecked
        // separately on kink-free inputs above).
        check_grad(&[hs, hr, was, war, wa], |t, v| {
            let a1 = t.matmul(v[0], v[2]);
            let a2 = t.matmul(v[1], v[3]);
            let pre = t.tanh(t.add(a1, a2));
            let alpha = t.sigmoid(t.matmul(pre, v[4]));
            let msg = t.add(v[0], v[1]);
            let weighted = t.mul_col_broadcast(msg, alpha);
            let agg = t.scatter_add_rows(weighted, &[0, 1, 0, 2, 1, 0], 3);
            t.sum_all(t.square(agg))
        });
    }

    #[test]
    fn grad_node_level_layer(
        h in small_matrix(4, 3),
        rel in small_matrix(3, 3),
        w in small_matrix(3, 3),
        w_as in small_matrix(3, 2),
        w_ar in small_matrix(3, 2),
        bias_wa in (small_matrix(1, 2), small_matrix(2, 1)),
    ) {
        // One node-level KUCNet layer (Eq. 6): W^l, W_αs^l and W_αr^l run
        // over the node rows and the relation table, then each edge gathers
        // and adds; α is scaled by a constant 1/outdeg (the random-walk
        // norm) before the scatter.
        let (bias, w_a) = bias_wa;
        let (src, ri, dst) = ([0u32, 1, 1, 3, 2, 0], [2u32, 0, 1, 2, 0, 1], [0u32, 1, 0, 2, 1, 2]);
        // Skip cases with an attention pre-activation near the ReLU kink,
        // where central differences are ill-defined.
        let pre = add_row_broadcast(
            &gather_rows(&h.matmul(&w_as), &src)
                .zip_map(&gather_rows(&rel.matmul(&w_ar), &ri), |x, y| x + y),
            &bias,
        );
        if pre.data().iter().any(|x| x.abs() <= 0.05) {
            continue;
        }
        let inv = Matrix::col_vector(&[0.5, 0.5, 0.5, 1.0, 1.0, 0.5]);
        check_grad(&[h, rel, w, w_as, w_ar, bias, w_a], |t, v| {
            let node_msg = t.matmul(v[0], v[2]);
            let rel_msg = t.matmul(v[1], v[2]);
            let msg = t.gather_pair_add(node_msg, &src, rel_msg, &ri);
            let a_s = t.gather_rows(t.matmul(v[0], v[3]), &src);
            let a_r = t.gather_rows(t.matmul(v[1], v[4]), &ri);
            let alpha = t.attn_edge_score(a_s, a_r, v[5], v[6]);
            let scale = t.mul_col_broadcast(alpha, t.constant(inv.clone()));
            let agg = t.scale_mask_scatter_add(msg, Some(scale), None, &dst, 3);
            t.sum_all(t.square(agg))
        });
    }
}
