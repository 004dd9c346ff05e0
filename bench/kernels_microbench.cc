// Standalone microbenchmark of the dense kernels that dominate
// hypothesis-scoring cost, comparing the scalar and AVX2+FMA dispatch
// tables in one process (supports the Table 2 cost model with per-kernel
// numbers). No external benchmark dependency.
//
// Usage: kernels_microbench [--smoke] [out.json]
//
//   --smoke    one timed repetition per case (CI sanity run); the >=2x
//              speedup gate is skipped, correctness and dispatch gates
//              still apply.
//   out.json   where to write the machine-readable results
//              (default BENCH_kernels.json in the working directory).
//
// Exit is non-zero when any gate fails:
//   1. correctness: every kernel's AVX2 result must match scalar to
//      rounding tolerance;
//   2. dispatch: on an AVX2-capable host without an EXPLAINIT_SIMD
//      override, the auto-selected table must be the AVX2 one (catches
//      silent fallback regressions in the dispatcher);
//   3. speedup (full runs only): Gram and MatMul at 480x512 must be
//      >= 2x faster with the AVX2 table than with the scalar table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/time_util.h"
#include "la/blas.h"
#include "la/cholesky.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "stats/ridge.h"

namespace explainit {
namespace {

volatile double g_sink = 0.0;

la::Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(r, c);
  rng.FillNormal(m.data(), m.size());
  return m;
}

struct Case {
  std::string name;
  /// Runs the kernel once and returns a checksum (defeats dead-code
  /// elimination via g_sink).
  std::function<double()> run;
  /// Part of the >=2x acceptance gate.
  bool gated = false;
};

double Checksum(const la::Matrix& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.size(); i += 7) s += m.data()[i];
  return s;
}

/// Minimum wall time of `reps` timed runs (after one warmup).
int64_t TimeNs(const std::function<double()>& fn, int reps) {
  g_sink = g_sink + fn();  // warmup
  int64_t best = INT64_MAX;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = MonotonicNanos();
    g_sink = g_sink + fn();
    best = std::min(best, MonotonicNanos() - t0);
  }
  return best;
}

double MaxRelDiff(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 1e300;
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double denom =
        std::max({std::fabs(a.data()[i]), std::fabs(b.data()[i]), 1.0});
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]) / denom);
  }
  return worst;
}

/// Gate 1: differential scalar-vs-AVX2 check across the product shapes.
bool CorrectnessGate() {
  if (la::simd::Avx2Table() == nullptr) return true;
  const la::Matrix a = RandomMatrix(61, 37, 101);
  const la::Matrix b = RandomMatrix(37, 29, 102);
  const la::Matrix c = RandomMatrix(61, 29, 103);
  struct Shape {
    const char* name;
    std::function<la::Matrix()> run;
  };
  const Shape shapes[] = {
      {"MatMul", [&] { return la::MatMul(a, b); }},
      {"MatTMul", [&] { return la::MatTMul(a, c); }},
      {"MatMulT", [&] { return la::MatMulT(a, RandomMatrix(53, 37, 104)); }},
      {"Gram", [&] { return la::Gram(a); }},
      {"GramT", [&] { return la::GramT(a); }},
  };
  bool ok = true;
  for (const Shape& s : shapes) {
    la::simd::ForceIsa(la::simd::Isa::kScalar);
    const la::Matrix ref = s.run();
    la::simd::ForceIsa(la::simd::Isa::kAvx2);
    const la::Matrix got = s.run();
    const double diff = MaxRelDiff(ref, got);
    if (diff > 1e-9) {
      std::fprintf(stderr,
                   "FAIL correctness: %s scalar vs avx2 max rel diff %.3e\n",
                   s.name, diff);
      ok = false;
    }
  }
  return ok;
}

/// Gate 2: silent-fallback detection. A capable host that did not ask for
/// the scalar path must auto-select AVX2.
bool DispatchGate() {
  if (!la::simd::CpuSupportsAvx2()) return true;  // nothing to fall back from
  if (la::simd::EnvOverridePresent()) return true;  // user made a choice
  if (la::simd::Avx2Table() == nullptr) {
    std::fprintf(stderr,
                 "FAIL dispatch: CPU supports AVX2+FMA but the AVX2 table "
                 "was not compiled in\n");
    return false;
  }
  // ActiveIsa() may have been overridden by earlier ForceIsa calls; the
  // gate checks what auto-dispatch picks.
  if (!la::simd::ForceIsa(la::simd::Isa::kAvx2)) {
    std::fprintf(stderr, "FAIL dispatch: ForceIsa(avx2) rejected on an "
                         "AVX2-capable host\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace explainit

int main(int argc, char** argv) {
  using namespace explainit;
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const bool have_avx2 = la::simd::Avx2Table() != nullptr;
  // Gates run before timing: a wrong kernel's speed is meaningless.
  const bool dispatch_ok = DispatchGate();
  const bool correctness_ok = CorrectnessGate();

  // The paper-scale scoring shape: T=480 observations, 512 features.
  const la::Matrix x480 = RandomMatrix(480, 512, 1);
  const la::Matrix a512 = RandomMatrix(480, 512, 2);
  const la::Matrix b512 = RandomMatrix(512, 480, 3);
  la::Matrix spd = la::Gram(RandomMatrix(520, 512, 4));
  for (size_t i = 0; i < 512; ++i) spd(i, i) += 1.0;
  const la::Matrix xcv = RandomMatrix(480, 320, 5);
  const la::Matrix ycv = RandomMatrix(480, 1, 6);
  const la::Matrix xdual = RandomMatrix(240, 1024, 7);
  const la::Matrix ydual = RandomMatrix(240, 1, 8);
  const stats::RidgeRegression ridge;

  std::vector<Case> cases;
  cases.push_back({"gram_480x512", [&] { return Checksum(la::Gram(x480)); },
                   /*gated=*/true});
  cases.push_back({"matmul_480x512x480",
                   [&] { return Checksum(la::MatMul(a512, b512)); },
                   /*gated=*/true});
  cases.push_back(
      {"mattmul_480x512", [&] { return Checksum(la::MatTMul(x480, a512)); }});
  cases.push_back(
      {"matmult_480x512", [&] { return Checksum(la::MatMulT(x480, a512)); }});
  cases.push_back({"cholesky_512", [&] {
                     auto f = la::CholeskyFactor(spd);
                     return f.ok() ? Checksum(f.value()) : -1.0;
                   }});
  cases.push_back({"ridge_fitcv_primal_480x320", [&] {
                     auto f = ridge.FitCv(xcv, ycv);
                     return f.ok() ? f.value().cv_r2 : -1.0;
                   }});
  cases.push_back({"ridge_fitcv_dual_240x1024", [&] {
                     auto f = ridge.FitCv(xdual, ydual);
                     return f.ok() ? f.value().cv_r2 : -1.0;
                   }});

  const int reps = smoke ? 1 : 9;
  struct Row {
    std::string name;
    int64_t scalar_ns = 0;
    int64_t simd_ns = 0;
    bool gated = false;
  };
  std::vector<Row> rows;
  for (const Case& c : cases) {
    Row row;
    row.name = c.name;
    row.gated = c.gated;
    la::simd::ForceIsa(la::simd::Isa::kScalar);
    row.scalar_ns = TimeNs(c.run, reps);
    if (have_avx2) {
      la::simd::ForceIsa(la::simd::Isa::kAvx2);
      row.simd_ns = TimeNs(c.run, reps);
    }
    rows.push_back(row);
  }
  if (have_avx2) la::simd::ForceIsa(la::simd::Isa::kAvx2);

  std::printf("%-28s %14s %14s %9s\n", "kernel", "scalar_ns", "avx2_ns",
              "speedup");
  bool speedup_ok = true;
  for (const Row& r : rows) {
    const double speedup =
        r.simd_ns > 0 ? static_cast<double>(r.scalar_ns) / r.simd_ns : 0.0;
    std::printf("%-28s %14lld %14lld %8.2fx\n", r.name.c_str(),
                static_cast<long long>(r.scalar_ns),
                static_cast<long long>(r.simd_ns), speedup);
    if (!smoke && have_avx2 && r.gated && speedup < 2.0) {
      std::fprintf(stderr, "FAIL speedup: %s at %.2fx (< 2x required)\n",
                   r.name.c_str(), speedup);
      speedup_ok = false;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"kernels_microbench\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"avx2_available\": %s,\n",
                 have_avx2 ? "true" : "false");
    std::fprintf(f, "  \"gates\": {\"correctness\": %s, \"dispatch\": %s, "
                    "\"speedup\": %s},\n",
                 correctness_ok ? "true" : "false",
                 dispatch_ok ? "true" : "false",
                 speedup_ok ? "true" : "false");
    std::fprintf(f, "  \"kernels\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double speedup =
          r.simd_ns > 0 ? static_cast<double>(r.scalar_ns) / r.simd_ns : 0.0;
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scalar_ns\": %lld, "
                   "\"avx2_ns\": %lld, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), static_cast<long long>(r.scalar_ns),
                   static_cast<long long>(r.simd_ns), speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", out_path.c_str());
  }

  if (!correctness_ok || !dispatch_ok || !speedup_ok) return 1;
  std::printf("all gates passed (%s)\n",
              smoke ? "smoke mode: speedup gate skipped" : "full run");
  return 0;
}
