use qnn_tensor::conv::Geometry;
use qnn_tensor::pool;
use qnn_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::layers::Layer;
use crate::network::Mode;

/// Max-pooling layer (`maxpool k×k` rows of Table I/II).
#[derive(Debug)]
pub struct MaxPool2d {
    geom: Geometry,
    cache: Option<(Shape, Vec<usize>)>,
}

impl MaxPool2d {
    /// Square max pooling with the given kernel and stride (no padding —
    /// none of the paper's architectures pad their pooling). `ceil`
    /// selects Caffe's ceil-mode output sizing (the paper's ALEX pools).
    pub fn new(kernel: usize, stride: usize, ceil: bool) -> Self {
        let geom = if ceil {
            Geometry::square_ceil(kernel, stride, 0)
        } else {
            Geometry::square(kernel, stride, 0)
        };
        MaxPool2d { geom, cache: None }
    }

    /// The pooling geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        // Only Train's backward reads the argmax; Eval pools without it.
        if mode == Mode::Eval {
            self.cache = None;
            return Ok(pool::max_pool2d_eval(input, self.geom)?);
        }
        let out = pool::max_pool2d(input, self.geom)?;
        self.cache = Some((input.shape().clone(), out.argmax));
        Ok(out.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let (shape, argmax) = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "maxpool" })?;
        Ok(pool::max_pool2d_backward(&shape, &argmax, grad_out)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        if input.rank() != 3 {
            return Err(NnError::Tensor(qnn_tensor::TensorError::RankMismatch {
                op: "maxpool",
                expected: 3,
                actual: input.rank(),
            }));
        }
        let (oh, ow) = self.geom.output_hw(input.dim(1), input.dim(2))?;
        Ok(Shape::d3(input.dim(0), oh, ow))
    }
}

/// Average-pooling layer (`avgpool k×k` rows of Table I/II).
#[derive(Debug)]
pub struct AvgPool2d {
    geom: Geometry,
    in_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Square average pooling with the given kernel and stride; `ceil` as
    /// in [`MaxPool2d::new`].
    pub fn new(kernel: usize, stride: usize, ceil: bool) -> Self {
        let geom = if ceil {
            Geometry::square_ceil(kernel, stride, 0)
        } else {
            Geometry::square(kernel, stride, 0)
        };
        AvgPool2d {
            geom,
            in_shape: None,
        }
    }

    /// The pooling geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let out = pool::avg_pool2d(input, self.geom)?;
        self.in_shape = (mode == Mode::Train).then(|| input.shape().clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .in_shape
            .take()
            .ok_or(NnError::NoForwardCache { layer: "avgpool" })?;
        Ok(pool::avg_pool2d_backward(&shape, grad_out, self.geom)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        if input.rank() != 3 {
            return Err(NnError::Tensor(qnn_tensor::TensorError::RankMismatch {
                op: "avgpool",
                expected: 3,
                actual: input.rank(),
            }));
        }
        let (oh, ow) = self.geom.output_hw(input.dim(1), input.dim(2))?;
        Ok(Shape::d3(input.dim(0), oh, ow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_round_trip() {
        let mut l = MaxPool2d::new(2, 2, false);
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 5., 2., 3.]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[5.]);
        let gx = l.backward(&Tensor::ones(Shape::d4(1, 1, 1, 1))).unwrap();
        assert_eq!(gx.as_slice(), &[0., 1., 0., 0.]);
    }

    #[test]
    fn avg_pool_layer_round_trip() {
        let mut l = AvgPool2d::new(2, 2, false);
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
        let gx = l.backward(&Tensor::ones(Shape::d4(1, 1, 1, 1))).unwrap();
        assert_eq!(gx.as_slice(), &[0.25; 4]);
    }

    #[test]
    fn output_shapes() {
        let l = MaxPool2d::new(3, 2, false);
        assert_eq!(
            l.output_shape(&Shape::d3(32, 32, 32)).unwrap(),
            Shape::d3(32, 15, 15)
        );
        let l = AvgPool2d::new(3, 2, false);
        assert_eq!(
            l.output_shape(&Shape::d3(64, 8, 8)).unwrap(),
            Shape::d3(64, 3, 3)
        );
    }

    #[test]
    fn pools_have_no_params() {
        let mut l = MaxPool2d::new(2, 2, false);
        assert!(l.params_mut().is_empty());
        assert!(l.weight_quantizer().is_none());
    }
}
