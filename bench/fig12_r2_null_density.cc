// Figure 12: density of the OLS r^2 and adjusted r^2 under the null
// (no relationship), n = 1000, p = 500. r^2 concentrates near
// (p-1)/(n-1) ~ 0.5; Wherry's r^2_adj concentrates near 0 with larger
// spread. Checked against the closed-form Beta((p-1)/2, (n-p)/2).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "exec/worker_pool.h"
#include "stats/distributions.h"
#include "stats/ols.h"

namespace {

void PrintDensity(const char* label, const std::vector<double>& samples,
                  double lo, double hi, int bins = 20) {
  std::vector<int> counts(bins, 0);
  for (double v : samples) {
    int b = static_cast<int>((v - lo) / (hi - lo) * bins);
    b = std::clamp(b, 0, bins - 1);
    ++counts[b];
  }
  const int maxc = *std::max_element(counts.begin(), counts.end());
  std::printf("%s\n", label);
  for (int b = 0; b < bins; ++b) {
    const int w = maxc > 0 ? counts[b] * 40 / maxc : 0;
    std::printf("  %6.2f |%s\n", lo + (hi - lo) * (b + 0.5) / bins,
                std::string(static_cast<size_t>(w), '#').c_str());
  }
}

}  // namespace

int main() {
  using namespace explainit;
  bench::PrintHeader(
      "Figure 12: null density of OLS r^2 vs adjusted r^2 (n=1000, p=500)");
  const size_t n = 1000, p = 500;
  const int reps = bench::PaperScale() ? 200 : 80;
  std::vector<double> r2(reps), r2adj(reps);
  exec::ParallelFor(exec::WorkerPool::Global(), reps, [&](size_t i) {
    Rng rng(1000 + i);
    la::Matrix x(n, p), y(n, 1);
    rng.FillNormal(x.data(), x.size());
    rng.FillNormal(y.data(), y.size());
    auto ols = stats::OlsFit(x, y);
    if (!ols.ok()) return;
    r2[i] = ols->r2;
    r2adj[i] = ols->r2_adjusted;
  });
  PrintDensity("OLS r^2:", r2, -0.2, 1.0);
  PrintDensity("OLS r^2_adj:", r2adj, -0.2, 1.0);

  stats::BetaDistribution null_dist = stats::NullR2Distribution(n, p);
  double mean_r2 = 0.0, mean_adj = 0.0;
  for (int i = 0; i < reps; ++i) {
    mean_r2 += r2[i];
    mean_adj += r2adj[i];
  }
  mean_r2 /= reps;
  mean_adj /= reps;
  const double ks = stats::KolmogorovSmirnovStatistic(
      r2, [&](double v) { return null_dist.Cdf(v); });
  std::printf(
      "\nmean r^2 = %.3f (theory (p-1)/(n-1) = %.3f)   mean r^2_adj = %.3f"
      " (theory 0)\n",
      mean_r2, null_dist.Mean(), mean_adj);
  std::printf("KS statistic of r^2 sample vs Beta((p-1)/2,(n-p)/2): %.3f\n",
              ks);
  const bool ok = std::abs(mean_r2 - null_dist.Mean()) < 0.05 &&
                  std::abs(mean_adj) < 0.05 && ks < 0.2;
  std::printf("matches the Appendix A theory: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
