//! # pg-tensor
//!
//! Dense linear-algebra and machine-learning substrate for the ParaGraph
//! reproduction. The paper trains its models with PyTorch-Geometric; since
//! this repository builds everything from scratch in Rust, `pg-tensor`
//! provides the pieces those models need:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with rayon-parallel matmul,
//! * [`autograd::Tape`] — reverse-mode automatic differentiation over the op
//!   set required by relational graph attention networks,
//! * [`Adam`] — the Adam optimiser used by the paper,
//! * [`MinMaxScaler`] / [`TargetTransform`] — the feature/target scaling the
//!   paper applies before training,
//! * [`metrics`] — RMSE, normalised RMSE and relative error (the paper's
//!   evaluation metrics).
//!
//! The crate is dependency-light and fully deterministic given a seed, which
//! keeps every experiment in `pg-bench` reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adam;
pub mod autograd;
pub mod init;
pub mod matrix;
pub mod metrics;
pub mod scaler;

pub use adam::{Adam, AdamConfig};
pub use autograd::{Tape, Var};
pub use matrix::Matrix;
pub use scaler::{MinMaxScaler, TargetTransform};

#[cfg(test)]
mod integration_tests {
    //! A tiny end-to-end learning problem proving that matrix ops, autograd
    //! and Adam compose into something that actually learns.
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn two_layer_mlp_learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(1234);
        // y = 2*x0 - 3*x1 + 0.5
        let sample = |rng: &mut StdRng| {
            let x0: f32 = rng.gen_range(-1.0..1.0);
            let x1: f32 = rng.gen_range(-1.0..1.0);
            (vec![x0, x1], 2.0 * x0 - 3.0 * x1 + 0.5)
        };

        let mut w1 = init::xavier_uniform(&mut rng, 2, 16);
        let mut b1 = Matrix::zeros(1, 16);
        let mut w2 = init::xavier_uniform(&mut rng, 16, 1);
        let mut b2 = Matrix::zeros(1, 1);
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.01,
            ..AdamConfig::default()
        });

        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let (x, y) = sample(&mut rng);
            let mut tape = Tape::new();
            let vx = tape.leaf(Matrix::row_vector(&x));
            let vw1 = tape.leaf(w1.clone());
            let vb1 = tape.leaf(b1.clone());
            let vw2 = tape.leaf(w2.clone());
            let vb2 = tape.leaf(b2.clone());
            let h = tape.matmul(vx, vw1);
            let h = tape.add_row_broadcast(h, vb1);
            let h = tape.tanh(h);
            let o = tape.matmul(h, vw2);
            let o = tape.add_row_broadcast(o, vb2);
            let loss = tape.mse_loss(o, &[y]);
            tape.backward(loss);
            final_loss = tape.value(loss).get(0, 0);

            adam.begin_step();
            // grad_ref borrows the retained gradient buffers — no clones.
            adam.step(0, &mut w1, tape.grad_ref(vw1).expect("w1 gradient"));
            adam.step(1, &mut b1, tape.grad_ref(vb1).expect("b1 gradient"));
            adam.step(2, &mut w2, tape.grad_ref(vw2).expect("w2 gradient"));
            adam.step(3, &mut b2, tape.grad_ref(vb2).expect("b2 gradient"));
        }
        assert!(
            final_loss < 0.05,
            "MLP failed to learn a simple linear map, final loss {final_loss}"
        );
    }
}
