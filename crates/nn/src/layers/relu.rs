use qnn_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::layers::Layer;
use crate::network::Mode;

/// Rectified linear unit, `max(0, x)` — the nonlinearity stage of the
/// modelled accelerator's NFU pipeline.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    in_shape: Option<Shape>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward_owned(input.clone(), mode)
    }

    fn forward_owned(&mut self, mut input: Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if mode == Mode::Train {
            self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
            self.in_shape = Some(input.shape().clone());
        } else {
            self.mask = None;
            self.in_shape = None;
        }
        input.map_inplace(|x| x.max(0.0));
        Ok(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::NoForwardCache { layer: "relu" })?;
        let shape = self.in_shape.take().expect("shape cached with mask");
        if grad_out.len() != mask.len() {
            return Err(NnError::Tensor(qnn_tensor::TensorError::LengthMismatch {
                shape,
                len: grad_out.len(),
            }));
        }
        let data = grad_out
            .as_slice()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Ok(Tensor::from_vec(shape, data)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        Ok(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negatives() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1., 0., 2., -3.]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0., 0., 2., 0.]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1., 0.5, 2., -3.]).unwrap();
        l.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(Shape::d1(4));
        let gx = l.backward(&g).unwrap();
        assert_eq!(gx.as_slice(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn zero_input_gets_zero_gradient() {
        // The subgradient choice at exactly 0 is 0 (x > 0 strictly).
        let mut l = Relu::new();
        let x = Tensor::zeros(Shape::d1(2));
        l.forward(&x, Mode::Train).unwrap();
        let gx = l.backward(&Tensor::ones(Shape::d1(2))).unwrap();
        assert_eq!(gx.as_slice(), &[0., 0.]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut l = Relu::new();
        assert!(l.backward(&Tensor::ones(Shape::d1(1))).is_err());
    }
}
