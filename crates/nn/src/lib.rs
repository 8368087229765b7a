//! Feed-forward neural networks with manual backpropagation.
//!
//! The paper learns neural-network controllers (ReLU hidden layers, Tanh
//! output — §4) and compares against RL baselines (DDPG, SVG) that *train*
//! networks. This crate is the shared NN substrate:
//!
//! * [`Activation`] — ReLU / Tanh / Sigmoid / Identity with values,
//!   derivatives, and the Taylor coefficients used by the POLAR-style
//!   abstraction;
//! * [`Network`] — a dense multi-layer perceptron with forward evaluation,
//!   reverse-mode gradients, and a *flat parameter vector* view
//!   ([`Network::params`] / [`Network::set_params`]) — exactly the `θ` that
//!   Algorithm 1 perturbs with its difference method;
//! * [`Adam`] / [`Sgd`] — optimizers for the baselines.
//!
//! # Example
//!
//! ```
//! use dwv_nn::{Activation, Network};
//!
//! let mut net = Network::new(&[2, 8, 1], Activation::ReLU, Activation::Tanh, 42);
//! let y = net.forward(&[0.5, -0.3]);
//! assert_eq!(y.len(), 1);
//! assert!(y[0].abs() <= 1.0); // Tanh output layer
//!
//! // Flat parameter access for verification-in-the-loop perturbations:
//! let mut theta = net.params();
//! theta[0] += 1e-3;
//! net.set_params(&theta);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
pub mod arbitrary;
mod layer;
mod network;
mod optim;

pub use activation::Activation;
pub use layer::Layer;
pub use network::Network;
pub use optim::{Adam, Optimizer, Sgd};
