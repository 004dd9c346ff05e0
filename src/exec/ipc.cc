#include "exec/ipc.h"

#include <cstring>

#include "common/time_util.h"

namespace explainit::exec {

namespace {
constexpr uint32_t kMagic = 0x4D545845;  // "EXTM"

/// out = a * b, or false on uint64 wraparound. Header dimensions are
/// untrusted bytes once frames arrive over a socket: a wrapped product
/// can make the expected size match a short buffer and turn the payload
/// memcpy into a heap overflow.
bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__GNUC__) || defined(__clang__)
  return !__builtin_mul_overflow(a, b, out);
#else
  if (b != 0 && a > UINT64_MAX / b) return false;
  *out = a * b;
  return true;
#endif
}
}

std::vector<uint8_t> EncodeMatrix(const la::Matrix& m) {
  const uint64_t rows = m.rows(), cols = m.cols();
  std::vector<uint8_t> out(sizeof(uint32_t) + 2 * sizeof(uint64_t) +
                           m.size() * sizeof(double));
  uint8_t* p = out.data();
  std::memcpy(p, &kMagic, sizeof(kMagic));
  p += sizeof(kMagic);
  std::memcpy(p, &rows, sizeof(rows));
  p += sizeof(rows);
  std::memcpy(p, &cols, sizeof(cols));
  p += sizeof(cols);
  // An empty matrix may hold no buffer, and memcpy from null is undefined
  // even for zero bytes.
  if (m.size() > 0) std::memcpy(p, m.data(), m.size() * sizeof(double));
  return out;
}

Result<la::Matrix> DecodeMatrix(const std::vector<uint8_t>& buffer) {
  if (buffer.size() < sizeof(uint32_t) + 2 * sizeof(uint64_t)) {
    return Status::InvalidArgument("matrix buffer too short");
  }
  const uint8_t* p = buffer.data();
  uint32_t magic = 0;
  std::memcpy(&magic, p, sizeof(magic));
  p += sizeof(magic);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad matrix buffer magic");
  }
  uint64_t rows = 0, cols = 0;
  std::memcpy(&rows, p, sizeof(rows));
  p += sizeof(rows);
  std::memcpy(&cols, p, sizeof(cols));
  p += sizeof(cols);
  // Validate untrusted dimensions before any arithmetic that could wrap:
  // rows * cols and the * sizeof(double) below both overflow uint64 for
  // hostile headers, making `expected` match a short buffer.
  if (rows > kMaxMatrixDim || cols > kMaxMatrixDim) {
    return Status::InvalidArgument(
        "matrix dimensions exceed the decode cap (" +
        std::to_string(kMaxMatrixDim) + "): rows=" + std::to_string(rows) +
        " cols=" + std::to_string(cols));
  }
  uint64_t elements = 0, payload = 0;
  if (!CheckedMul(rows, cols, &elements) || elements > kMaxMatrixElements ||
      !CheckedMul(elements, sizeof(double), &payload)) {
    return Status::InvalidArgument(
        "matrix element count exceeds the decode cap (" +
        std::to_string(kMaxMatrixElements) + "): rows=" +
        std::to_string(rows) + " cols=" + std::to_string(cols));
  }
  const uint64_t expected =
      sizeof(uint32_t) + 2 * sizeof(uint64_t) + payload;
  if (buffer.size() != expected) {
    return Status::InvalidArgument("matrix buffer size mismatch");
  }
  la::Matrix m(rows, cols);
  if (payload > 0) std::memcpy(m.data(), p, static_cast<size_t>(payload));
  return m;
}

Result<la::Matrix> RoundTripMatrix(const la::Matrix& m, double* seconds) {
  const double start = MonotonicSeconds();
  std::vector<uint8_t> wire = EncodeMatrix(m);
  Result<la::Matrix> back = DecodeMatrix(wire);
  if (seconds != nullptr) *seconds += MonotonicSeconds() - start;
  return back;
}

}  // namespace explainit::exec
