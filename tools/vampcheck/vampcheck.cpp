// vampcheck driver — see vampcheck.h for the pass catalogue and
// docs/static-analysis.md for the workflow.
//
// Usage: vampcheck <pass> <root>...
//   pass: layering | determinism | dirtywrite | all
//   Each root is a source tree (typically the repo's src/). Findings go to
//   stderr as <file>:<line>: error: [pass] ...
//   Exit code: 0 clean, 1 violations found, 2 usage/IO error.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "vampcheck.h"

namespace {

struct Pass {
  const char* name;
  int (*run)(const std::vector<std::filesystem::path>&);
};

const Pass kPasses[] = {
    {"layering", vampcheck::RunLayering},
    {"determinism", vampcheck::RunDeterminism},
    {"dirtywrite", vampcheck::RunDirtyWrite},
};

int Usage() {
  std::fprintf(stderr,
               "usage: vampcheck <layering|determinism|dirtywrite"
               "|all> <root>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string which = argv[1];
  std::vector<std::filesystem::path> roots;
  for (int i = 2; i < argc; ++i) roots.emplace_back(argv[i]);

  int violations = 0;
  bool matched = false;
  for (const Pass& p : kPasses) {
    if (which != "all" && which != p.name) continue;
    matched = true;
    const int n = p.run(roots);
    if (n < 0) return 2;
    violations += n;
  }
  if (!matched) return Usage();
  if (violations > 0) {
    std::fprintf(stderr, "vampcheck: %d violation%s\n", violations,
                 violations == 1 ? "" : "s");
    return 1;
  }
  return 0;
}
