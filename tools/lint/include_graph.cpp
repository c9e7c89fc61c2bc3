#include "include_graph.hpp"

#include <algorithm>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace shep::lint {

void LayerDag::AddLayer(const std::string& layer,
                        const std::vector<std::string>& deps) {
  if (layer.empty() || Knows(layer)) {
    throw std::invalid_argument("layer dag: duplicate or empty layer `" +
                                layer + "`");
  }
  // Build the closure incrementally: a dep must already be declared, so
  // its own reachable set is final.  This also makes cycles impossible to
  // express — the table is a DAG by construction.
  std::vector<std::string> reach{layer};
  for (const std::string& dep : deps) {
    if (!Knows(dep)) {
      throw std::invalid_argument("layer dag: `" + layer +
                                  "` depends on undeclared layer `" + dep +
                                  "` (declare dependencies first)");
    }
    for (const std::string& r : reachable_.at(dep)) {
      if (std::find(reach.begin(), reach.end(), r) == reach.end()) {
        reach.push_back(r);
      }
    }
  }
  layers_.push_back(layer);
  direct_[layer] = deps;
  reachable_[layer] = std::move(reach);
}

bool LayerDag::Knows(const std::string& layer) const {
  return direct_.count(layer) != 0;
}

bool LayerDag::Allows(const std::string& from, const std::string& to) const {
  const auto it = reachable_.find(from);
  if (it == reachable_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), to) !=
         it->second.end();
}

const std::vector<std::string>& LayerDag::DirectDeps(
    const std::string& layer) const {
  const auto it = direct_.find(layer);
  if (it == direct_.end()) {
    throw std::invalid_argument("layer dag: unknown layer `" + layer + "`");
  }
  return it->second;
}

std::string LayerDag::Describe() const {
  std::ostringstream os;
  os << "shep-layer-dag v1\n";
  for (const std::string& layer : layers_) {
    os << "layer " << layer << " :";
    for (const std::string& dep : direct_.at(layer)) os << ' ' << dep;
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

LayerDag LayerDag::Parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  auto next_line = [&]() {
    while (std::getline(is, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return true;
    }
    return false;
  };
  if (!next_line() || line != "shep-layer-dag v1") {
    throw std::invalid_argument("layer dag: missing `shep-layer-dag v1`");
  }
  LayerDag dag;
  while (next_line() && line != "end") {
    std::istringstream fields(line);
    std::string keyword, layer, colon;
    fields >> keyword >> layer >> colon;
    if (keyword != "layer" || colon != ":") {
      throw std::invalid_argument("layer dag: malformed line `" + line + "`");
    }
    std::vector<std::string> deps;
    std::string dep;
    while (fields >> dep) deps.push_back(dep);
    dag.AddLayer(layer, deps);
  }
  if (line != "end") {
    throw std::invalid_argument("layer dag: missing `end`");
  }
  return dag;
}

const LayerDag& LayerDag::Project() {
  // Mirrors the CMake target graph in /CMakeLists.txt and the diagram in
  // README.md; tools/lint/layer_dag.txt is the committed text twin and
  // the lint tests assert Describe() matches it byte for byte.
  static const LayerDag dag = [] {
    LayerDag d;
    d.AddLayer("common", {});
    d.AddLayer("timeseries", {"common"});
    d.AddLayer("metrics", {"common"});
    d.AddLayer("solar", {"timeseries"});
    d.AddLayer("core", {"timeseries", "metrics"});
    d.AddLayer("hw", {"core"});
    d.AddLayer("mgmt", {"core", "metrics"});
    d.AddLayer("sweep", {"core", "metrics"});
    d.AddLayer("report", {"common"});
    d.AddLayer("trace", {"common", "report"});
    d.AddLayer("fleet", {"common", "solar", "core", "hw", "mgmt", "metrics",
                         "report", "trace"});
    return d;
  }();
  return dag;
}

std::vector<IncludeRef> ExtractIncludes(const SourceFile& file) {
  static const std::regex kInclude(R"(^\s*#\s*include\s*"([^"]+)\")");
  std::vector<IncludeRef> refs;
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    // Raw lines, not stripped ones: the stripper blanks the quoted path
    // (it looks like a string literal).  #include cannot appear inside a
    // comment's continuation because the directive must start the line.
    std::smatch m;
    if (std::regex_search(file.raw[i], m, kInclude) &&
        // ...unless the whole line sits in a block comment, in which case
        // the stripped line has no '#'.
        file.code[i].find('#') != std::string::npos) {
      refs.push_back({i + 1, m[1].str()});
    }
  }
  return refs;
}

std::optional<std::string> LayerOfPath(const std::string& repo_relative) {
  static constexpr std::string_view kSrc = "src/";
  if (repo_relative.rfind(kSrc, 0) != 0) return std::nullopt;
  const std::size_t slash = repo_relative.find('/', kSrc.size());
  if (slash == std::string::npos) return std::nullopt;
  return repo_relative.substr(kSrc.size(), slash - kSrc.size());
}

}  // namespace shep::lint
