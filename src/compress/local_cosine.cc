#include "compress/local_cosine.h"

#include <array>
#include <cmath>

namespace mmconf::compress {

namespace {

constexpr int kN = kLocalCosineBlock;

using Matrix = std::array<std::array<double, kN>, kN>;

/// Orthonormal DCT-II basis matrix D (row k is basis function k) and its
/// transpose, built once.
struct DctMatrices {
  Matrix d, dt;
};

const DctMatrices& Dct() {
  static const DctMatrices matrices = [] {
    DctMatrices m{};
    for (int k = 0; k < kN; ++k) {
      double scale = k == 0 ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int n = 0; n < kN; ++n) {
        m.d[k][n] = scale * std::cos(M_PI * (n + 0.5) * k / kN);
        m.dt[n][k] = m.d[k][n];
      }
    }
    return m;
  }();
  return matrices;
}

Status CheckDims(const Plane& plane) {
  if (plane.width % kN != 0 || plane.height % kN != 0) {
    return Status::InvalidArgument(
        "local cosine transform needs dimensions divisible by " +
        std::to_string(kN) + ", got " + std::to_string(plane.width) + "x" +
        std::to_string(plane.height));
  }
  return Status::OK();
}

/// Applies M along x then along y to the 8x8 block at (bx, by): the
/// block becomes M * block * M^T. Forward passes M = D, inverse M = D^T,
/// so no per-product choice is left in the loops. Each output sums its
/// eight products over n = 0..7 in order. This dot-product shape is the
/// one GCC -O3 vectorises best here: loops that broadcast one input and
/// run across k or x measured about twice as slow.
void TransformBlock(Plane& plane, int bx, int by, const Matrix& m) {
  Matrix tmp, out;
  // Rows: tmp[y][k] = sum_n M[k][n] * block[y][n].
  for (int y = 0; y < kN; ++y) {
    for (int k = 0; k < kN; ++k) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) acc += m[k][n] * plane.at(bx + n, by + y);
      tmp[y][k] = acc;
    }
  }
  // Columns: block[k][x] = sum_n M[k][n] * tmp[n][x].
  for (int x = 0; x < kN; ++x) {
    for (int k = 0; k < kN; ++k) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) acc += m[k][n] * tmp[n][x];
      out[k][x] = acc;
    }
  }
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) plane.at(bx + x, by + y) = out[y][x];
  }
}

Status TransformAll(Plane& plane, bool forward) {
  MMCONF_RETURN_IF_ERROR(CheckDims(plane));
  const DctMatrices& dct = Dct();
  const Matrix& m = forward ? dct.d : dct.dt;
  for (int by = 0; by < plane.height; by += kN) {
    for (int bx = 0; bx < plane.width; bx += kN) {
      TransformBlock(plane, bx, by, m);
    }
  }
  return Status::OK();
}

}  // namespace

Status LocalCosine2D(Plane& plane) { return TransformAll(plane, true); }

Status InverseLocalCosine2D(Plane& plane) {
  return TransformAll(plane, false);
}

}  // namespace mmconf::compress
