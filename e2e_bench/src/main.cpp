// sptx_e2e — one workload of the end-to-end benchmark per process.
//
//   sptx_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//
// run.py builds this binary and drives it; see README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "pipeline.hpp"

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "sptx_e2e: refusing to measure a build with "
                       "assertions on (build type %s); build Release\n",
               SPTX_E2E_BUILD_TYPE);
  return 3;
#endif
  if (std::string(SPTX_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "sptx_e2e: refusing build type '%s'; build Release\n",
                 SPTX_E2E_BUILD_TYPE);
    return 3;
  }
  e2e::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      std::fprintf(stderr, "sptx_e2e: unknown option '%s'\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "usage: sptx_e2e --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  try {
    return e2e::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sptx_e2e: %s\n", e.what());
    return 1;
  }
}
