//! Tile extraction/assembly between spatial feature maps and the Winograd
//! domain.
//!
//! A spatial `H×W` feature map is cut into `⌈H/m⌉ × ⌈W/m⌉` overlapping
//! input tiles of size `T×T` (`T = m + r - 1`, stride `m`, zero padding
//! `(r-1)/2` for "same" convolution). After the 2-D input transform, data
//! lives in a [`WgTensor`]: an element-major layout where all values of
//! tile element `(u, v)` form one `tiles × channels` matrix — exactly the
//! `T²` independent GEMMs of the paper's Eq. 2 and the unit of intra-tile
//! parallelism that MPT distributes across groups.

use wmpt_par::ParPool;
use wmpt_tensor::{Shape4, Tensor4};

use crate::WinogradTransform;

/// Tiling geometry for one layer ("same" padding, stride 1).
///
/// # Examples
///
/// ```
/// use wmpt_winograd::{Tiling, WinogradTransform};
///
/// let tf = WinogradTransform::f2x2_3x3();
/// let tl = Tiling::new(&tf, 8, 8);
/// assert_eq!((tl.tiles_h, tl.tiles_w), (4, 4));
/// assert_eq!(tl.tiles_per_image(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Output tile size per dimension (`m`).
    pub m: usize,
    /// Input tile size per dimension (`T`).
    pub t: usize,
    /// Zero padding applied on each border (`(r-1)/2`).
    pub pad: usize,
    /// Feature-map height.
    pub h: usize,
    /// Feature-map width.
    pub w: usize,
    /// Number of tile rows.
    pub tiles_h: usize,
    /// Number of tile columns.
    pub tiles_w: usize,
}

impl Tiling {
    /// Computes the tiling of an `h×w` feature map under `tf`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is even (the paper's layers all use odd kernels with
    /// "same" padding) or if `h`/`w` is zero.
    pub fn new(tf: &WinogradTransform, h: usize, w: usize) -> Self {
        assert!(tf.r() % 2 == 1, "same-padding tiling requires odd r");
        assert!(h > 0 && w > 0, "feature map must be non-empty");
        let m = tf.m();
        Self {
            m,
            t: tf.t(),
            pad: (tf.r() - 1) / 2,
            h,
            w,
            tiles_h: h.div_ceil(m),
            tiles_w: w.div_ceil(m),
        }
    }

    /// Tiles per image (`tiles_h × tiles_w` — the paper's `t`).
    pub fn tiles_per_image(&self) -> usize {
        self.tiles_h * self.tiles_w
    }

    /// Top-left spatial coordinate (may be negative: padding) of input tile
    /// `(ty, tx)`.
    pub fn tile_origin(&self, ty: usize, tx: usize) -> (isize, isize) {
        (
            (ty * self.m) as isize - self.pad as isize,
            (tx * self.m) as isize - self.pad as isize,
        )
    }
}

/// Winograd-domain tensor: `elems = T²` independent `tiles × chans`
/// matrices stored contiguously, `data[(e * tiles + tile) * chans + c]`.
///
/// `tiles` counts tiles across the whole batch (`B · tiles_per_image`).
#[derive(Debug, Clone, PartialEq)]
pub struct WgTensor {
    /// Number of tile elements (`T²`).
    pub elems: usize,
    /// Total number of tiles across the batch.
    pub tiles: usize,
    /// Number of channels.
    pub chans: usize,
    /// Element-major storage.
    pub data: Vec<f32>,
}

impl WgTensor {
    /// Creates a zeroed Winograd-domain tensor.
    pub fn zeros(elems: usize, tiles: usize, chans: usize) -> Self {
        Self {
            elems,
            tiles,
            chans,
            data: vec![0.0; elems * tiles * chans],
        }
    }

    /// Linear index of `(elem, tile, chan)`.
    #[inline]
    pub fn index(&self, e: usize, tile: usize, c: usize) -> usize {
        debug_assert!(e < self.elems && tile < self.tiles && c < self.chans);
        (e * self.tiles + tile) * self.chans + c
    }

    /// The `tiles × chans` matrix of element `e`, as a slice.
    pub fn elem_matrix(&self, e: usize) -> &[f32] {
        &self.data[e * self.tiles * self.chans..(e + 1) * self.tiles * self.chans]
    }

    /// Mutable view of element `e`'s matrix.
    pub fn elem_matrix_mut(&mut self, e: usize) -> &mut [f32] {
        &mut self.data[e * self.tiles * self.chans..(e + 1) * self.tiles * self.chans]
    }

    /// Gathers the full `T²`-element tile `tile` of channel `c`.
    pub fn gather_tile(&self, tile: usize, c: usize) -> Vec<f32> {
        (0..self.elems)
            .map(|e| self.data[self.index(e, tile, c)])
            .collect()
    }

    /// Scatters a full tile back into element-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != elems`.
    pub fn scatter_tile(&mut self, tile: usize, c: usize, vals: &[f32]) {
        assert_eq!(vals.len(), self.elems);
        for (e, v) in vals.iter().enumerate() {
            let i = self.index(e, tile, c);
            self.data[i] = *v;
        }
    }

    /// Size in bytes (`f32` storage) — the paper's `|Tiles|` for traffic
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Winograd-domain weights: `elems = T²` independent `in_chans × out_chans`
/// matrices, `data[(e * in_chans + i) * out_chans + j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WgWeights {
    /// Number of tile elements (`T²`).
    pub elems: usize,
    /// Input channels `I`.
    pub in_chans: usize,
    /// Output channels `J`.
    pub out_chans: usize,
    /// Element-major storage.
    pub data: Vec<f32>,
}

impl WgWeights {
    /// Creates zeroed Winograd-domain weights.
    pub fn zeros(elems: usize, in_chans: usize, out_chans: usize) -> Self {
        Self {
            elems,
            in_chans,
            out_chans,
            data: vec![0.0; elems * in_chans * out_chans],
        }
    }

    /// Linear index of `(elem, in_chan, out_chan)`.
    #[inline]
    pub fn index(&self, e: usize, i: usize, j: usize) -> usize {
        debug_assert!(e < self.elems && i < self.in_chans && j < self.out_chans);
        (e * self.in_chans + i) * self.out_chans + j
    }

    /// The `I × J` matrix of element `e`.
    pub fn elem_matrix(&self, e: usize) -> &[f32] {
        let n = self.in_chans * self.out_chans;
        &self.data[e * n..(e + 1) * n]
    }

    /// Mutable view of element `e`'s matrix.
    pub fn elem_matrix_mut(&mut self, e: usize) -> &mut [f32] {
        let n = self.in_chans * self.out_chans;
        &mut self.data[e * n..(e + 1) * n]
    }

    /// Size in bytes — the paper's `|W|` (Winograd-domain weight size).
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// In-place SGD step `W -= lr * grad`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sgd_step(&mut self, grad: &WgWeights, lr: f32) {
        assert_eq!(
            (self.elems, self.in_chans, self.out_chans),
            (grad.elems, grad.in_chans, grad.out_chans),
            "weight/grad shape mismatch"
        );
        for (w, g) in self.data.iter_mut().zip(&grad.data) {
            *w -= lr * g;
        }
    }
}

/// Splits `out`'s storage into one list per image of the `T²` runs (one
/// per element) that hold the image's `tpi` tiles: image `b`'s tiles sit
/// at tile index `b * tpi ..` of every element. The runs are disjoint, so
/// the pool writes every image straight into the batch tensor, and the
/// result does not depend on which worker wrote which image.
fn image_runs(out: &mut WgTensor, tpi: usize) -> Vec<Vec<&mut [f32]>> {
    let (elems, run) = (out.elems, tpi * out.chans);
    let mut images: Vec<Vec<&mut [f32]>> = (0..out.tiles / tpi.max(1))
        .map(|_| Vec::with_capacity(elems))
        .collect();
    for elem in out.data.chunks_mut((out.tiles * out.chans).max(1)) {
        for (img, r) in images.iter_mut().zip(elem.chunks_mut(run.max(1))) {
            img.push(r);
        }
    }
    images
}

/// Extracts and transforms every tile of image `b` into its element
/// runs (see [`image_runs`]), tile `(ty, tx)` at `ty * tiles_w + tx`.
fn image_to_winograd_into(
    x: &Tensor4,
    b: usize,
    tf: &WinogradTransform,
    tl: &Tiling,
    runs: &mut [&mut [f32]],
) {
    let t = tl.t;
    let chans = x.shape().c;
    let mut tile_buf = vec![0.0f32; t * t];
    for c in 0..chans {
        for ty in 0..tl.tiles_h {
            for tx in 0..tl.tiles_w {
                let (oy, ox) = tl.tile_origin(ty, tx);
                for u in 0..t {
                    for v in 0..t {
                        tile_buf[u * t + v] = x.get_padded(b, c, oy + u as isize, ox + v as isize);
                    }
                }
                let at = (ty * tl.tiles_w + tx) * chans + c;
                for (run, v) in runs.iter_mut().zip(tf.input_2d(&tile_buf)) {
                    run[at] = v;
                }
            }
        }
    }
}

/// Transforms a spatial feature map into the Winograd domain
/// (tile extraction + 2-D input transform, `Bᵀ x B` per tile). Images
/// are extracted and transformed independently across the pool, each
/// into its own runs of the batch-wide element-major tensor, so the
/// result is bit-identical for any job count.
pub fn to_winograd_input_par(pool: &ParPool, x: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let tpi = tl.tiles_per_image();
    let mut out = WgTensor::zeros(tl.t * tl.t, s.n * tpi, s.c);
    pool.for_each_chunk_mut(&mut image_runs(&mut out, tpi), 1, |b, img| {
        image_to_winograd_into(x, b, tf, &tl, &mut img[0]);
    });
    out
}

/// Extracts *untransformed* spatial tiles in the same element-major layout
/// (used by the distributed trainer, where the input transform happens at
/// the destination worker or is split 1-D/1-D across source/destination).
pub fn to_spatial_tiles(x: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let t = tl.t;
    let tpi = tl.tiles_per_image();
    let mut out = WgTensor::zeros(t * t, s.n * tpi, s.c);
    let mut tile_buf = vec![0.0f32; t * t];
    for b in 0..s.n {
        for c in 0..s.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let (oy, ox) = tl.tile_origin(ty, tx);
                    for u in 0..t {
                        for v in 0..t {
                            tile_buf[u * t + v] =
                                x.get_padded(b, c, oy + u as isize, ox + v as isize);
                        }
                    }
                    let tile_idx = b * tpi + ty * tl.tiles_w + tx;
                    out.scatter_tile(tile_idx, c, &tile_buf);
                }
            }
        }
    }
    out
}

/// Transforms spatial weights `(J, I, r, r)` into Winograd-domain weights
/// (`G w Gᵀ` per filter).
pub fn weights_to_winograd(w: &Tensor4, tf: &WinogradTransform) -> WgWeights {
    let s = w.shape();
    assert_eq!(s.h, tf.r(), "weight height must equal r");
    assert_eq!(s.w, tf.r(), "weight width must equal r");
    let t = tf.t();
    let r = tf.r();
    let mut out = WgWeights::zeros(t * t, s.c, s.n);
    let mut wbuf = vec![0.0f32; r * r];
    for j in 0..s.n {
        for i in 0..s.c {
            for u in 0..r {
                for v in 0..r {
                    wbuf[u * r + v] = w[(j, i, u, v)];
                }
            }
            let tw = tf.weight_2d(&wbuf);
            for (e, val) in tw.iter().enumerate() {
                let idx = out.index(e, i, j);
                out.data[idx] = *val;
            }
        }
    }
    out
}

/// Inverse-transforms every tile of image `b` of `y` into the image's
/// contiguous NCHW slice `img` (length `c * h * w`).
fn image_from_winograd_into(
    y: &WgTensor,
    tf: &WinogradTransform,
    tl: &Tiling,
    b: usize,
    out_shape: Shape4,
    img: &mut [f32],
) {
    let tpi = tl.tiles_per_image();
    let m = tl.m;
    let (h, w) = (out_shape.h, out_shape.w);
    for j in 0..out_shape.c {
        for ty in 0..tl.tiles_h {
            for tx in 0..tl.tiles_w {
                let tile_idx = b * tpi + ty * tl.tiles_w + tx;
                let full = y.gather_tile(tile_idx, j);
                let sp = tf.inverse_2d(&full);
                for u in 0..m {
                    let oy = ty * m + u;
                    if oy >= h {
                        break;
                    }
                    for v in 0..m {
                        let ox = tx * m + v;
                        if ox >= w {
                            break;
                        }
                        img[(j * h + oy) * w + ox] = sp[u * m + v];
                    }
                }
            }
        }
    }
}

/// Inverse-transforms a Winograd-domain output (`tiles × J` per element)
/// back to a spatial feature map of shape `out_shape`
/// (`Aᵀ Y A` per tile + tile assembly; edge tiles are cropped). Each
/// image's inverse transform writes a disjoint contiguous NCHW slice,
/// fanned out across the pool; bit-identical for any job count.
///
/// # Panics
///
/// Panics if the tile geometry of `y` does not match `out_shape` under `tf`.
pub fn from_winograd_output_par(
    pool: &ParPool,
    y: &WgTensor,
    tf: &WinogradTransform,
    out_shape: Shape4,
) -> Tensor4 {
    let tl = Tiling::new(tf, out_shape.h, out_shape.w);
    let tpi = tl.tiles_per_image();
    assert_eq!(y.tiles, out_shape.n * tpi, "tile count mismatch");
    assert_eq!(y.chans, out_shape.c, "channel count mismatch");
    assert_eq!(y.elems, tl.t * tl.t, "element count mismatch");
    let mut out = Tensor4::zeros(out_shape);
    let stride = out_shape.c * out_shape.h * out_shape.w;
    pool.for_each_chunk_mut(out.as_mut_slice(), stride, |b, img| {
        image_from_winograd_into(y, tf, &tl, b, out_shape, img);
    });
    out
}

/// Pushes the output gradient of image `b` into its element runs (see
/// [`image_runs`]) — the adjoint of the inverse transform — tile
/// `(ty, tx)` at `ty * tiles_w + tx`.
fn image_grad_to_winograd_into(
    dy: &Tensor4,
    b: usize,
    tf: &WinogradTransform,
    tl: &Tiling,
    runs: &mut [&mut [f32]],
) {
    let s = dy.shape();
    let m = tl.m;
    let mut buf = vec![0.0f32; m * m];
    for j in 0..s.c {
        for ty in 0..tl.tiles_h {
            for tx in 0..tl.tiles_w {
                buf.iter_mut().for_each(|v| *v = 0.0);
                for u in 0..m {
                    let oy = ty * m + u;
                    if oy >= s.h {
                        break;
                    }
                    for v in 0..m {
                        let ox = tx * m + v;
                        if ox >= s.w {
                            break;
                        }
                        buf[u * m + v] = dy[(b, j, oy, ox)];
                    }
                }
                let at = (ty * tl.tiles_w + tx) * s.c + j;
                for (run, v) in runs.iter_mut().zip(tf.inverse_2d_grad(&buf)) {
                    run[at] = v;
                }
            }
        }
    }
}

/// Pushes a spatial output gradient into the Winograd domain
/// (`A ∂y Aᵀ` per tile — the adjoint of [`from_winograd_output_par`]).
/// Images fan out across the pool like [`to_winograd_input_par`];
/// bit-identical for any job count.
pub fn output_grad_to_winograd_par(
    pool: &ParPool,
    dy: &Tensor4,
    tf: &WinogradTransform,
) -> WgTensor {
    let s = dy.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let tpi = tl.tiles_per_image();
    let mut out = WgTensor::zeros(tl.t * tl.t, s.n * tpi, s.c);
    pool.for_each_chunk_mut(&mut image_runs(&mut out, tpi), 1, |b, img| {
        image_grad_to_winograd_into(dy, b, tf, &tl, &mut img[0]);
    });
    out
}

/// Accumulates image `b`'s overlapped tile gradients into the image's
/// contiguous NCHW slice `img`. Tiles only ever overlap within one image,
/// so images are independent. The accumulation order over `(ty, tx)`
/// does not depend on the pool.
fn image_input_grad_into(
    dx: &WgTensor,
    tf: &WinogradTransform,
    tl: &Tiling,
    b: usize,
    in_shape: Shape4,
    img: &mut [f32],
) {
    let tpi = tl.tiles_per_image();
    let t = tl.t;
    let (h, w) = (in_shape.h, in_shape.w);
    for c in 0..in_shape.c {
        for ty in 0..tl.tiles_h {
            for tx in 0..tl.tiles_w {
                let tile_idx = b * tpi + ty * tl.tiles_w + tx;
                let full = dx.gather_tile(tile_idx, c);
                let sp = tf.input_2d_grad(&full);
                let (oy, ox) = tl.tile_origin(ty, tx);
                for u in 0..t {
                    let y = oy + u as isize;
                    if y < 0 || y as usize >= h {
                        continue;
                    }
                    for v in 0..t {
                        let x = ox + v as isize;
                        if x < 0 || x as usize >= w {
                            continue;
                        }
                        img[(c * h + y as usize) * w + x as usize] += sp[u * t + v];
                    }
                }
            }
        }
    }
}

/// Pushes a Winograd-domain input gradient back to the spatial domain
/// (`B ∂X Bᵀ` per tile + overlapped accumulation — the adjoint of
/// [`to_winograd_input_par`]). Each image's overlapped accumulation
/// stays on one thread, in a fixed `(ty, tx)` order; images fan out
/// across the pool into disjoint NCHW slices. Bit-identical for any job
/// count.
///
/// # Panics
///
/// Panics if the tile geometry of `dx` does not match `in_shape` under `tf`.
pub fn input_grad_to_spatial_par(
    pool: &ParPool,
    dx: &WgTensor,
    tf: &WinogradTransform,
    in_shape: Shape4,
) -> Tensor4 {
    let tl = Tiling::new(tf, in_shape.h, in_shape.w);
    let tpi = tl.tiles_per_image();
    assert_eq!(dx.tiles, in_shape.n * tpi, "tile count mismatch");
    assert_eq!(dx.chans, in_shape.c, "channel count mismatch");
    let mut out = Tensor4::zeros(in_shape);
    let stride = in_shape.c * in_shape.h * in_shape.w;
    pool.for_each_chunk_mut(out.as_mut_slice(), stride, |b, img| {
        image_input_grad_into(dx, tf, &tl, b, in_shape, img);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_tensor::DataGen;

    #[test]
    fn tiling_counts_round_up() {
        let tf = WinogradTransform::f2x2_3x3();
        let tl = Tiling::new(&tf, 7, 9);
        assert_eq!((tl.tiles_h, tl.tiles_w), (4, 5));
        assert_eq!(tl.pad, 1);
        assert_eq!(tl.tile_origin(0, 0), (-1, -1));
        assert_eq!(tl.tile_origin(1, 2), (1, 3));
    }

    #[test]
    fn wg_tensor_gather_scatter_round_trip() {
        let mut wg = WgTensor::zeros(4, 3, 2);
        let tile = [1.0, 2.0, 3.0, 4.0];
        wg.scatter_tile(2, 1, &tile);
        assert_eq!(wg.gather_tile(2, 1), tile.to_vec());
        assert_eq!(wg.gather_tile(0, 0), vec![0.0; 4]);
        assert_eq!(wg.bytes(), 4 * 3 * 2 * 4);
    }

    #[test]
    fn winograd_input_round_trip_through_identity_weights() {
        // With w = delta kernel (identity convolution), fprop must return x.
        let tf = WinogradTransform::f2x2_3x3();
        let mut gen = DataGen::new(11);
        let shape = Shape4::new(2, 3, 6, 6);
        let x = gen.normal_tensor(shape, 0.0, 1.0);

        // delta kernel: w[j,i,1,1] = 1 iff i == j
        let mut w = Tensor4::zeros(Shape4::new(3, 3, 3, 3));
        for c in 0..3 {
            w[(c, c, 1, 1)] = 1.0;
        }
        let wx = to_winograd_input_par(&ParPool::serial(), &x, &tf);
        let ww = weights_to_winograd(&w, &tf);
        // Element-wise GEMM: y_e = x_e * w_e
        let mut y = WgTensor::zeros(wx.elems, wx.tiles, 3);
        for e in 0..wx.elems {
            for tile in 0..wx.tiles {
                for j in 0..3 {
                    let mut s = 0.0f32;
                    for i in 0..3 {
                        s += wx.data[wx.index(e, tile, i)] * ww.data[ww.index(e, i, j)];
                    }
                    let idx = y.index(e, tile, j);
                    y.data[idx] = s;
                }
            }
        }
        let back = from_winograd_output_par(&ParPool::serial(), &y, &tf, shape);
        assert!(
            back.max_abs_diff(&x) < 1e-4,
            "diff {}",
            back.max_abs_diff(&x)
        );
    }

    #[test]
    fn output_grad_adjoint_property() {
        // <from_winograd_output_par(Y), dy> == <Y, output_grad_to_winograd_par(dy)>
        let tf = WinogradTransform::f2x2_3x3();
        let mut gen = DataGen::new(5);
        let shape = Shape4::new(1, 2, 5, 5); // non-divisible: exercises cropping
        let tl = Tiling::new(&tf, 5, 5);
        let tiles = shape.n * tl.tiles_per_image();
        let mut y = WgTensor::zeros(16, tiles, 2);
        for v in &mut y.data {
            *v = gen.normal(0.0, 1.0) as f32;
        }
        let dy = gen.normal_tensor(shape, 0.0, 1.0);
        let fwd = from_winograd_output_par(&ParPool::serial(), &y, &tf, shape);
        let bwd = output_grad_to_winograd_par(&ParPool::serial(), &dy, &tf);
        let lhs: f64 = fwd
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = y
            .data
            .iter()
            .zip(&bwd.data)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, wmpt_check::Tol::CONV_F32);
    }

    #[test]
    fn input_grad_adjoint_property() {
        // <to_winograd_input_par(x), dX> == <x, input_grad_to_spatial_par(dX)>
        let tf = WinogradTransform::f4x4_3x3();
        let mut gen = DataGen::new(6);
        let shape = Shape4::new(1, 2, 7, 7);
        let x = gen.normal_tensor(shape, 0.0, 1.0);
        let tl = Tiling::new(&tf, 7, 7);
        let tiles = shape.n * tl.tiles_per_image();
        let mut dxw = WgTensor::zeros(36, tiles, 2);
        for v in &mut dxw.data {
            *v = gen.normal(0.0, 1.0) as f32;
        }
        let fwd = to_winograd_input_par(&ParPool::serial(), &x, &tf);
        let bwd = input_grad_to_spatial_par(&ParPool::serial(), &dxw, &tf, shape);
        let lhs: f64 = fwd
            .data
            .iter()
            .zip(&dxw.data)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(bwd.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, wmpt_check::Tol::CONV_WIDE_F32);
    }

    #[test]
    fn weights_sgd_step_moves_toward_negative_gradient() {
        let mut w = WgWeights::zeros(4, 2, 2);
        let mut g = WgWeights::zeros(4, 2, 2);
        g.data[5] = 2.0;
        w.sgd_step(&g, 0.5);
        assert_eq!(w.data[5], -1.0);
        assert!(w.data.iter().enumerate().all(|(i, &v)| i == 5 || v == 0.0));
    }
}
