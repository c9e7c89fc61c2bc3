// include_graph.hpp — the layer dependency DAG, as data.
//
// The README/ROADMAP diagram and the CMake target graph both describe the
// same strict per-layer DAG; this header makes that table machine-readable
// so shep_lint can enforce it on `#include` edges at build time instead of
// trusting the linker to notice.  The authoritative copy lives in
// ProjectDag() below AND in the committed tools/lint/layer_dag.txt; the
// lint test suite asserts the two are identical, so the table cannot drift
// from the file reviewers read.
//
// Allowed edges are the REFLEXIVE-TRANSITIVE closure of the direct-deps
// table: layer links are PUBLIC in CMake, so if core may use timeseries
// and timeseries may use common, core including a common header is fine —
// what the closure still forbids is any edge the diagram doesn't imply
// (solar → core, mgmt → hw, anything → fleet, ...).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "source_scan.hpp"

namespace shep::lint {

/// The per-layer dependency table.  `layers` preserves declaration order
/// (used by Describe so the text form is stable).
class LayerDag {
 public:
  /// Declares `layer` with its allowed DIRECT dependencies, which must
  /// already have been declared (this is what keeps the table acyclic by
  /// construction).  Throws std::invalid_argument otherwise.
  void AddLayer(const std::string& layer,
                const std::vector<std::string>& deps);

  bool Knows(const std::string& layer) const;

  /// True when a file in `from` may include a header of `to`:
  /// reflexive-transitive closure of the direct edges.
  bool Allows(const std::string& from, const std::string& to) const;

  const std::vector<std::string>& layers() const { return layers_; }
  const std::vector<std::string>& DirectDeps(const std::string& layer) const;

  /// Stable text form:
  ///   shep-layer-dag v1
  ///   layer <name> : <dep> <dep> ...
  ///   ...
  ///   end
  std::string Describe() const;

  /// Inverse of Describe; throws std::invalid_argument on malformed or
  /// forward-referencing input.
  static LayerDag Parse(const std::string& text);

  /// The shep source tree's DAG (mirrors CMakeLists.txt and the README
  /// diagram).
  static const LayerDag& Project();

 private:
  std::vector<std::string> layers_;
  std::map<std::string, std::vector<std::string>> direct_;
  /// Closure cache: reachable[layer] = every layer it may depend on,
  /// including itself.
  std::map<std::string, std::vector<std::string>> reachable_;
};

/// A quoted `#include "..."` directive.
struct IncludeRef {
  std::size_t line = 0;  ///< 1-based.
  std::string path;      ///< the text between the quotes.
};

/// Extracts the quoted includes of a scanned file (angle includes are
/// system headers and carry no layer information).
std::vector<IncludeRef> ExtractIncludes(const SourceFile& file);

/// Maps a repo-relative path to its layer: "src/<layer>/..." -> <layer>;
/// anything else (tests/, bench/, examples/, tools/) has no layer.
std::optional<std::string> LayerOfPath(const std::string& repo_relative);

}  // namespace shep::lint
