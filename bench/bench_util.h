// Shared scaffolding for the per-figure/per-table bench binaries: flag
// parsing and paper-vs-measured reporting. Every binary prints the
// rows/series its paper figure or table reports and exits.
#ifndef MMLPT_BENCH_BENCH_UTIL_H
#define MMLPT_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"

namespace mmlpt::bench {

/// One "paper says X, we measured Y" line; collected and rendered as a
/// closing table so EXPERIMENTS.md can be regenerated from bench output.
class PaperComparison {
 public:
  explicit PaperComparison(std::string experiment)
      : experiment_(std::move(experiment)) {}

  void add(const std::string& quantity, const std::string& paper,
           const std::string& measured) {
    rows_.push_back({quantity, paper, measured});
  }
  void add(const std::string& quantity, double paper, double measured,
           int digits = 3) {
    add(quantity, fmt_double(paper, digits), fmt_double(measured, digits));
  }

  void print() const {
    AsciiTable table({"quantity", "paper", "measured"});
    table.set_title("=== " + experiment_ + ": paper vs measured ===");
    for (const auto& row : rows_) {
      table.add_row({row.quantity, row.paper, row.measured});
    }
    std::fputs(table.render().c_str(), stdout);
  }

 private:
  struct Row {
    std::string quantity;
    std::string paper;
    std::string measured;
  };
  std::string experiment_;
  std::vector<Row> rows_;
};

inline void print_header(const std::string& title, const Flags& flags,
                         std::uint64_t seed) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("seed=%llu%s\n", static_cast<unsigned long long>(seed),
              flags.has("help") ? " (--help has no effect; see source)" : "");
  std::printf("==================================================\n");
}

/// Run the experiment body: 0 when it completes, 1 (with the reason on
/// stderr) when it throws.
inline int run_bench_main(int argc, char** argv,
                          const std::function<void(const Flags&)>& body) {
  const Flags flags(argc, argv);
  try {
    body(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace mmlpt::bench

#endif  // MMLPT_BENCH_BENCH_UTIL_H
