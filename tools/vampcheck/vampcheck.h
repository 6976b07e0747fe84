// vampcheck — the static-analysis suite guarding VampOS's recovery
// invariants (see docs/static-analysis.md). One dependency-free binary,
// three passes:
//
//   layering     include-graph layering rules (DESIGN.md §"Layering rules")
//   determinism  no nondeterministic calls in component handler code
//                (src/apps, src/comp) — replayed handlers must reproduce
//                their logged return values bit-for-bit
//   dirtywrite   raw bulk writes into arena memory must stay inside the
//                sanctioned DirtyTracker paths (or carry an adjacent
//                MarkDirty), so WriteTracking claims stay honest
//
// Deliberately textual (no libclang): this tree's includes are always
// root-relative layer paths and the banned calls are plain tokens, so exact
// token scanning is reliable — and the analyzer builds in milliseconds with
// nothing but a C++ compiler.
//
// Every pass shares the escape hatch
//     // vampcheck:allow(<pass>,<reason>)
// on the flagged line or the line above. The reason is mandatory; an allow
// comment without one is itself a violation.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace vampcheck {

struct SourceFile {
  std::filesystem::path path;       // as given (for reports)
  std::string rel;                  // root-relative, generic separators
  std::vector<std::string> lines;
};

/// Loads every .h/.hpp/.cc/.cpp under `root`, sorted by path for
/// deterministic reports. Returns nullopt on IO errors (reported to stderr).
std::optional<std::vector<SourceFile>> LoadTree(
    const std::filesystem::path& root);

[[nodiscard]] bool IsIdentChar(char c);

/// Position of `tok` in `line` at a word boundary (neither neighbor is an
/// identifier character), at or after `from`; npos if absent.
std::size_t FindToken(const std::string& line, const std::string& tok,
                      std::size_t from = 0);

/// The line with any trailing // comment removed (string literals are left
/// alone — rare enough in this tree not to matter). Allow comments are
/// parsed from the raw line, banned tokens from the stripped one, so a
/// comment *talking about* rand() is not a finding.
std::string StripLineComment(const std::string& line);

/// True when line `idx` (0-based) or the line above carries a well-formed
/// vampcheck:allow(<pass>,<reason>) comment. A malformed one (missing or
/// empty reason) is reported as its own violation via `violations`.
bool Allowed(const SourceFile& f, std::size_t idx, const std::string& pass,
             int& violations);

/// Prints `path:line: error: [pass] msg` (1-based line) and returns 1.
int Report(const SourceFile& f, std::size_t idx, const std::string& pass,
           const std::string& msg);

// Pass entry points. Each scans the given roots, prints findings, and
// returns the violation count (negative on usage/IO error).
int RunLayering(const std::vector<std::filesystem::path>& roots);
int RunDeterminism(const std::vector<std::filesystem::path>& roots);
int RunDirtyWrite(const std::vector<std::filesystem::path>& roots);

}  // namespace vampcheck
