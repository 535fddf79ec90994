// Figure 20: 16 jobs on Twitter while varying the number of CPU cores
// (1..16). The container has one physical core, so the compute term is
// modeled as measured_serial_compute / cores on top of the (unchanged)
// modeled memory/disk stalls — the time model in runtime/metrics.hpp.
// Paper: -M is fastest at every core count, and the gap widens with cores
// because the data-access share (which GraphM removes) limits the others.
#include "bench_support.hpp"

using namespace graphm;
using namespace graphm::bench;

namespace {
double modeled_time(const BenchResult& r, int cores) {
  return r.compute_s / cores + r.io_stall_s + r.mem_stall_s;
}
}  // namespace

int main() {
  const std::string dataset = "twitter_s";
  const auto s = run_scheme(runtime::Scheme::kSequential, dataset, 16);
  const auto c = run_scheme(runtime::Scheme::kConcurrent, dataset, 16);
  const auto m = run_scheme(runtime::Scheme::kShared, dataset, 16);

  util::TablePrinter table("Figure 20: modeled total time vs #cores, 16 jobs on twitter_s (s)");
  table.set_header({"cores", "S", "C", "M", "S/M"});
  bool m_always_fastest = true;
  double first_ratio = 0.0;
  double last_ratio = 0.0;
  for (const int cores : {1, 2, 4, 8, 16}) {
    const double ts = modeled_time(s, cores);
    const double tc = modeled_time(c, cores);
    const double tm = modeled_time(m, cores);
    table.add_row({std::to_string(cores), util::TablePrinter::fmt(ts, 3),
                   util::TablePrinter::fmt(tc, 3), util::TablePrinter::fmt(tm, 3),
                   util::TablePrinter::fmt(ts / tm)});
    m_always_fastest = m_always_fastest && tm <= ts && tm <= tc;
    if (cores == 1) first_ratio = ts / tm;
    last_ratio = ts / tm;
  }
  table.print();
  print_shape("-M fastest at every core count", m_always_fastest);
  print_shape("-M's advantage grows with cores", last_ratio >= first_ratio);
  return 0;
}
