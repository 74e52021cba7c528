// Figures 9-10 and section 7 reproduction: QQ plots of the open
// inter-arrival sample against Normal and Pareto references, the LLCD tail
// plot with its least-squares alpha (paper: 1.2), and the Hill-estimator
// sweep over the traced quantities (paper: alpha between 1.2 and 1.7 --
// infinite variance everywhere).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/analysis/burstiness.h"
#include "src/analysis/report.h"
#include "src/base/format.h"

namespace ntrace {
namespace {

void PrintQq(const char* title, const QqSeries& qq) {
  std::printf("\n--- %s (normalized deviation from identity: %.4f) ---\n", title, qq.deviation);
  const size_t n = qq.sample_q.size();
  const size_t stride = n > 12 ? n / 12 : 1;
  std::printf("  %-16s %-16s\n", "observed", "theoretical");
  for (size_t i = 0; i < n; i += stride) {
    std::printf("  %-16.4g %-16.4g\n", qq.sample_q[i], qq.theoretical_q[i]);
  }
}

void Run() {
  Study& study = RunStandardStudy();
  const std::vector<double> sample = BurstinessAnalyzer::OpenInterarrivalsMs(study.instances());
  const TailDiagnostics diag =
      BurstinessAnalyzer::Diagnose("open inter-arrival (ms)", sample);

  PrintQq("Figure 9: QQ against Normal", diag.qq_normal);
  PrintQq("Figure 9: QQ against Pareto", diag.qq_pareto);
  PrintLlcd("Figure 10: open inter-arrival upper tail", diag.llcd);

  ComparisonReport report("Figures 9-10 / section 7");
  report.AddRow("Pareto QQ fits better than Normal QQ", "near-perfect vs poor",
                diag.qq_pareto.deviation < diag.qq_normal.deviation ? "yes" : "no",
                FormatF(diag.qq_pareto.deviation, 4) + " vs " +
                    FormatF(diag.qq_normal.deviation, 4));
  report.AddRow("LLCD alpha (inter-arrival tail)", "~1.2", FormatF(diag.llcd.alpha_hat, 2),
                "r2 " + FormatF(diag.llcd.fit_r2, 3));
  report.AddRow("LLCD tail looks linear", "power law", diag.llcd.fit_r2 > 0.9 ? "yes" : "weak",
                "");

  std::printf("\n--- Hill-estimator sweep (paper: 1.2-1.7 across quantities) ---\n");
  for (const TailDiagnostics& d : study.TailSweep()) {
    std::printf("  %-38s n=%-9zu hill alpha=%.2f  llcd alpha=%.2f\n", d.quantity.c_str(),
                d.samples, d.hill_alpha, d.llcd.alpha_hat);
    const double alpha = d.llcd.alpha_hat > 0 ? d.llcd.alpha_hat : d.hill_alpha;
    const bool infinite_variance = alpha > 0 && alpha < 2.0;
    report.AddRow("alpha<2 (infinite variance): " + d.quantity, "yes",
                  infinite_variance ? "yes" : "no",
                  "llcd " + FormatF(d.llcd.alpha_hat, 2) + ", hill " + FormatF(d.hill_alpha, 2));
  }
  report.Print();
}

}  // namespace
}  // namespace ntrace

int main() {
  ntrace::Run();
  return 0;
}
