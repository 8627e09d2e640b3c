use crate::error::TensorError;
use crate::shape::Shape;

/// An owned, contiguous, row-major tensor of `f32`.
///
/// This is the only array type in the workspace: weights, activations,
/// gradients and images are all `Tensor`s. It is deliberately simple — no
/// views, no broadcasting beyond what the network layers need — because the
/// paper's workloads (LeNet/ConvNet/ALEX at 28–32 px) are small enough that
/// clarity beats generality.
///
/// ```
/// use qnn_tensor::{Shape, Tensor};
///
/// let t = Tensor::zeros(Shape::d2(2, 2));
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.as_slice(), &[1.0; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and a backing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![1.0; len],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor, TensorError> {
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch {
                shape,
                len: self.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// `self += k * other`, the AXPY update used by SGD.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Checks that `self` and `other` are rank 2 and extracts
    /// `(rows₀, cols₀, rows₁, cols₁)`, reporting errors under `op`.
    fn matmul_dims(
        &self,
        other: &Tensor,
        op: &'static str,
    ) -> Result<(usize, usize, usize, usize), TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        if other.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: other.shape.rank(),
            });
        }
        Ok((
            self.shape.dim(0),
            self.shape.dim(1),
            other.shape.dim(0),
            other.shape.dim(1),
        ))
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// Uses the blocked kernel in [`crate::gemm`]: packed panels, a 4×16
    /// register microkernel (an AVX2 build of it where the CPU has AVX2),
    /// and row panels distributed over the [`crate::par`] pool.
    /// Bit-identical to [`matmul_naive`](Self::matmul_naive) in every
    /// build and at any thread count: each output element keeps a single
    /// accumulator walking `k` in ascending order, one multiply then one
    /// add per step, with no fused multiply-add. (A NaN output is NaN
    /// wherever the reference's is, but its sign may differ; see the
    /// [`crate::gemm`] docs.)
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k, k2, n) = self.matmul_dims(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nn(m, k, n, &self.data, &other.data, &mut out);
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// Reference matrix product: the plain `i-j-k` triple loop.
    ///
    /// Kept as the oracle the blocked [`matmul`](Self::matmul) must match
    /// bit-for-bit, and as the baseline the bench harness measures the
    /// blocked kernel against.
    ///
    /// # Errors
    ///
    /// Same contract as [`matmul`](Self::matmul).
    pub fn matmul_naive(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k, k2, n) = self.matmul_dims(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, &a) in arow.iter().enumerate() {
                    acc += a * other.data[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// `self` is `m×k`, `other` is `n×k`; the result is `m×n`. This is the
    /// dense-layer forward product `x·Wᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 operands and
    /// [`TensorError::ShapeMismatch`] if the `k` dimensions differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k, n, k2) = self.matmul_dims(other, "matmul_nt")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nt(m, k, n, &self.data, &other.data, &mut out);
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// `self` is `k×m`, `other` is `k×n`; the result is `m×n`. This is the
    /// dense-layer weight gradient `dYᵀ·X`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 operands and
    /// [`TensorError::ShapeMismatch`] if the `k` dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (k, m, k2, n) = self.matmul_dims(other, "matmul_tn")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_tn(m, k, n, &self.data, &other.data, &mut out);
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(Shape::d2(n, m), out)
    }

    /// Index of the largest element (ties resolve to the first).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }
}

impl Default for Tensor {
    /// A rank-1 tensor with a single zero element.
    fn default() -> Self {
        Tensor::zeros(Shape::d1(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(Shape::d1(3), vec![4., 5., 6.]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::zeros(Shape::d1(3));
        let g = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[-0.5, -1.0, -1.5]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![3., 1., 4., 1.]).unwrap();
        let id = Tensor::from_vec(Shape::d2(2, 2), vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        let mut r = crate::rng::seeded(0xA11CE);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (16, 16, 16),
            (9, 33, 17),
        ] {
            let a = crate::init::uniform(Shape::d2(m, k), -2.0, 2.0, &mut r);
            let b = crate::init::uniform(Shape::d2(k, n), -2.0, 2.0, &mut r);
            assert_eq!(a.matmul(&b).unwrap(), a.matmul_naive(&b).unwrap());
        }
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transpose() {
        let mut r = crate::rng::seeded(0xBEE);
        let a = crate::init::uniform(Shape::d2(6, 11), -1.0, 1.0, &mut r);
        let b = crate::init::uniform(Shape::d2(9, 11), -1.0, 1.0, &mut r);
        assert_eq!(
            a.matmul_nt(&b).unwrap(),
            a.matmul(&b.transpose().unwrap()).unwrap()
        );
        let x = crate::init::uniform(Shape::d2(11, 6), -1.0, 1.0, &mut r);
        let y = crate::init::uniform(Shape::d2(11, 9), -1.0, 1.0, &mut r);
        assert_eq!(
            x.matmul_tn(&y).unwrap(),
            x.transpose().unwrap().matmul(&y).unwrap()
        );
    }

    #[test]
    fn matmul_nt_rejects_mismatched_inner_dim() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 5));
        assert!(matches!(
            a.matmul_nt(&b).unwrap_err(),
            TensorError::ShapeMismatch {
                op: "matmul_nt",
                ..
            }
        ));
        assert!(matches!(
            a.matmul_tn(&b).unwrap_err(),
            TensorError::ShapeMismatch {
                op: "matmul_tn",
                ..
            }
        ));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 3));
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            TensorError::ShapeMismatch { op: "matmul", .. }
        ));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            v.matmul(&b).unwrap_err(),
            TensorError::RankMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn argmax_first_tie_and_empty() {
        let a = Tensor::from_vec(Shape::d1(4), vec![1., 7., 7., 2.]).unwrap();
        assert_eq!(a.argmax(), Some(1));
        let e = Tensor::zeros(Shape::d1(0));
        assert_eq!(e.argmax(), None);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = a.reshape(Shape::d3(1, 2, 3)).unwrap();
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(Shape::d1(5)).is_err());
    }

    #[test]
    fn at_and_at_mut() {
        let mut a = Tensor::zeros(Shape::d3(2, 2, 2));
        *a.at_mut(&[1, 0, 1]) = 9.0;
        assert_eq!(a.at(&[1, 0, 1]), 9.0);
        assert_eq!(a.at(&[0, 0, 0]), 0.0);
    }
}
