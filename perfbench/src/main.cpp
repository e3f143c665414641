// perfbench_driver: runs one benchmark workload and prints its record.
//
//   perfbench_driver --workload lib_gemm|serve_mixed|fleet_zipf
//                    --seed N --seconds S --trace 0|1
//
// Progress goes to stderr; stdout carries one JSON line with every metric the
// workload measured (end-to-end and, with --trace 1, per-layer), each with its
// unit and, for percentiles, the raw sample count. perfbench/run.py turns it
// into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload lib_gemm|serve_mixed|"
               "fleet_zipf --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0.0)) return usage();

  perfbench::Report report;
  report.metric("host.calib_gflops", perfbench::calibrate_gflops(), "GFLOP/s");
  int status = 0;
  if (opt.workload == "lib_gemm") {
    status = perfbench::run_lib_gemm(opt, report);
  } else if (opt.workload == "serve_mixed") {
    status = perfbench::run_serve_mixed(opt, report);
  } else if (opt.workload == "fleet_zipf") {
    status = perfbench::run_fleet_zipf(opt, report);
  } else {
    return usage();
  }
  if (status != 0) return status;
  report.metric("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  std::printf("%s\n", report.json(opt).c_str());
  return 0;
}
