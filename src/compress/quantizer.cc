#include "compress/quantizer.h"

namespace mmconf::compress {

void Quantize(const Plane& plane, double step, std::vector<int32_t>& out) {
  out.resize(plane.data.size());
  const double* in = plane.data.data();
  int32_t* q = out.data();
  // The conversion truncates toward zero, which is the dead zone.
  for (size_t i = 0; i < out.size(); ++i) {
    q[i] = static_cast<int32_t>(in[i] / step);
  }
}

Status Dequantize(const std::vector<int32_t>& coefficients, double step,
                  Plane& plane) {
  if (coefficients.size() != plane.data.size()) {
    return Status::InvalidArgument("coefficient count does not match plane");
  }
  const int32_t* q = coefficients.data();
  double* out = plane.data.data();
  // Branch-free: q + 0.5 * sign(q). For q == 0 that is 0 * step, an
  // exact +0 because the step is positive and finite.
  for (size_t i = 0; i < coefficients.size(); ++i) {
    const int32_t sign = (q[i] > 0) - (q[i] < 0);
    out[i] = (q[i] + 0.5 * sign) * step;
  }
  return Status::OK();
}

}  // namespace mmconf::compress
