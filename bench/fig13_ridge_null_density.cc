// Figure 13: the empirical density of ridge-regression r^2 under the null
// for n=1000, p=500. Small lambda behaves like plain OLS r^2 (biased
// toward (p-1)/(n-1)); huge lambda shrinks to ~0; cross-validated lambda
// selection behaves like the adjusted r^2 — near 0 with small variance.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "exec/worker_pool.h"
#include "la/blas.h"
#include "stats/ridge.h"

namespace {

// In-sample r^2 of a fixed-lambda ridge fit on standardised null data.
double InSampleRidgeR2(size_t n, size_t p, double lambda, uint64_t seed) {
  using namespace explainit;
  Rng rng(seed);
  la::Matrix x(n, p), y(n, 1);
  rng.FillNormal(x.data(), x.size());
  rng.FillNormal(y.data(), y.size());
  auto beta = stats::RidgeRegression::Solve(x, y, lambda);
  if (!beta.ok()) return 0.0;
  la::Matrix fitted = la::MatMul(x, beta.value());
  return stats::RSquared(y, fitted);
}

}  // namespace

int main() {
  using namespace explainit;
  bench::PrintHeader(
      "Figure 13: ridge r^2 under the null (n=1000, p=500)");
  const size_t n = 1000, p = 500;
  const int reps = bench::PaperScale() ? 100 : 40;

  for (double lambda : {0.1, 1e6}) {
    std::vector<double> r2s(reps);
    exec::ParallelFor(exec::WorkerPool::Global(), reps, [&](size_t i) {
      r2s[i] = InSampleRidgeR2(n, p, lambda, 2000 + i);
    });
    double mean = 0.0, var = 0.0;
    for (double v : r2s) mean += v;
    mean /= reps;
    for (double v : r2s) var += (v - mean) * (v - mean);
    var /= reps;
    std::printf("lambda = %-8.2g  in-sample r^2: mean %.3f  sd %.4f\n",
                lambda, mean, std::sqrt(var));
  }

  // Cross-validated selection: the score ExplainIt! actually reports.
  std::vector<double> cv_r2(reps);
  std::vector<double> chosen_lambda(reps);
  stats::RidgeOptions opts;
  opts.lambdas = {0.1, 10.0, 1000.0, 1e5, 1e6};
  exec::ParallelFor(exec::WorkerPool::Global(), reps, [&](size_t i) {
    Rng rng(3000 + i);
    la::Matrix x(n, p), y(n, 1);
    rng.FillNormal(x.data(), x.size());
    rng.FillNormal(y.data(), y.size());
    stats::RidgeRegression ridge(opts);
    auto fit = ridge.FitCv(x, y);
    if (!fit.ok()) return;
    cv_r2[i] = fit->cv_r2;
    chosen_lambda[i] = fit->best_lambda;
  });
  double mean = 0.0, var = 0.0, big_lambda = 0.0;
  for (int i = 0; i < reps; ++i) {
    mean += cv_r2[i];
    if (chosen_lambda[i] >= 1e5) big_lambda += 1.0;
  }
  mean /= reps;
  for (int i = 0; i < reps; ++i) {
    var += (cv_r2[i] - mean) * (cv_r2[i] - mean);
  }
  var /= reps;
  std::printf(
      "cross-validated   out-of-sample r^2: mean %.3f  sd %.4f;"
      "  lambda >= 1e5 chosen in %.0f%% of runs\n",
      mean, std::sqrt(var), 100.0 * big_lambda / reps);
  std::printf(
      "\nPaper shape: small lambda ~ OLS r^2 (~%.2f); CV selects a huge"
      " penalty and the score is ~0 with small variance.\n",
      499.0 / 999.0);
  const bool ok = std::abs(mean) < 0.1 && big_lambda / reps > 0.5;
  std::printf("matches: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
