// Figure 16: sensitivity to the job-submission frequency lambda on UK-union.
// Paper: the higher the lambda (more tightly packed submissions), the higher
// GraphM's speedup, because more jobs overlap and share each traversal.
#include "bench_support.hpp"

#include "runtime/job_queue.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  util::TablePrinter table("Figure 16: normalized execution time vs lambda (ukunion_s)");
  table.set_header({"lambda", "S", "C", "M", "S/M speedup"});

  std::vector<double> speedups;
  for (const double lambda : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    const std::string tag = "fig16_l" + std::to_string(static_cast<int>(lambda));
    const auto customize = [&](runtime::ExecutorConfig& config,
                               std::vector<algos::JobSpec>& specs) {
      config.arrival_offsets_ns =
          runtime::poisson_arrivals(specs.size(), lambda, 40'000'000, 7);
    };
    const auto s = run_scheme(runtime::Scheme::kSequential, "ukunion_s", 8, tag, customize);
    const auto c = run_scheme(runtime::Scheme::kConcurrent, "ukunion_s", 8, tag, customize);
    const auto m = run_scheme(runtime::Scheme::kShared, "ukunion_s", 8, tag, customize);
    const double speedup = s.total_s / m.total_s;
    table.add_row({util::TablePrinter::fmt(lambda, 0), util::TablePrinter::fmt(1.0),
                   util::TablePrinter::fmt(c.total_s / s.total_s),
                   util::TablePrinter::fmt(m.total_s / s.total_s),
                   util::TablePrinter::fmt(speedup)});
    speedups.push_back(speedup);
  }
  table.print();
  // One -M run at a given lambda is bimodal (the lambda=2 speedup has landed
  // both below and above the lambda=10 one), so compare the mean of the two
  // densest points against the two sparsest rather than single endpoints.
  print_shape("speedup grows with lambda (paper: higher lambda, higher gain)",
              speedups[3] + speedups[4] > speedups[0] + speedups[1]);
  return 0;
}
