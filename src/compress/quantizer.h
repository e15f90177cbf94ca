#ifndef MMCONF_COMPRESS_QUANTIZER_H_
#define MMCONF_COMPRESS_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/plane.h"

namespace mmconf::compress {

/// Uniform dead-zone quantizer. The dead zone (values with |x| < step map
/// to 0) is what makes transform coefficients sparse and the zero-run
/// coder effective. Each coefficient is plane/step truncated toward zero;
/// `out` is resized to the plane and reuses its capacity.
void Quantize(const Plane& plane, double step, std::vector<int32_t>& out);

/// Midpoint reconstruction of Quantize output into `plane`, whose
/// dimensions must match the coefficient count (InvalidArgument if not).
/// `step` must be positive and finite (the codec checks every step it
/// encodes with or parses). Overwrites every sample, so a scratch plane
/// can be reused.
Status Dequantize(const std::vector<int32_t>& coefficients, double step,
                  Plane& plane);

}  // namespace mmconf::compress

#endif  // MMCONF_COMPRESS_QUANTIZER_H_
