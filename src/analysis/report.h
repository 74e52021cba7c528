// Console reporting helpers shared by the bench binaries: paper-vs-measured
// rows, CDF series tables, and figure-style point dumps.

#ifndef SRC_ANALYSIS_REPORT_H_
#define SRC_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/tails.h"
#include "src/trace/integrity.h"

namespace ntrace {

struct TraceScan;

// Accumulates "metric | paper | measured | note" rows and renders them.
class ComparisonReport {
 public:
  explicit ComparisonReport(std::string title);

  void AddRow(const std::string& metric, const std::string& paper_value,
              const std::string& measured_value, const std::string& note = "");
  void AddPercent(const std::string& metric, double paper_pct, double measured_fraction,
                  const std::string& note = "");

  // Confidence annotation for salvaged inputs (DESIGN.md §16): printed
  // under the title, e.g. "coverage: shares computed over 98.6% of emitted
  // records (1,234 known lost)". A complete input prints nothing.
  void SetCoverage(const TraceScan& scan);

  // Renders the report to stdout.
  void Print() const;

 private:
  std::string title_;
  std::string coverage_note_;
  std::vector<std::vector<std::string>> rows_;
};

// The coverage sentence itself ("shares computed over 98.6% of emitted
// records; 1,234 records known lost"); empty when the scan covered every
// known record.
std::string CoverageNote(const TraceScan& scan);

// Prints a CDF as "value  cumulative%" rows at log-spaced probe points.
void PrintCdfSeries(const std::string& title, const WeightedCdf& cdf,
                    const std::vector<double>& probe_points, const std::string& unit);

// Probe points: log-spaced from lo to hi inclusive, points per decade.
std::vector<double> LogProbePoints(double lo, double hi, int per_decade = 2);

// Prints an LLCD series (figure-10 style) plus the fitted slope.
void PrintLlcd(const std::string& title, const LlcdSeries& series, size_t max_rows = 20);

// Prints side-by-side per-interval counts (figure-8 style), decimated.
void PrintArrivalComparison(const std::string& title, const std::vector<double>& trace_counts,
                            const std::vector<double>& poisson_counts, size_t max_rows = 16);

// Prints the per-system collection-pipeline accounting plus a totals row;
// the final column flags any system whose records are not fully accounted.
void PrintIntegrityReport(const IntegrityReport& report);

}  // namespace ntrace

#endif  // SRC_ANALYSIS_REPORT_H_
