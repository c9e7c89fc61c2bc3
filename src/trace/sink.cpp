#include "trace/sink.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "common/check.hpp"

namespace shep {

TraceSink::TraceSink(TraceSinkOptions options)
    : options_(std::move(options)) {}

void TraceSink::BeginRun(const TraceRunContext& context) {
  SHEP_REQUIRE(context.slots_per_day > 0,
               "trace run context needs slots_per_day > 0");
  if (!options_.directory.empty()) {
    std::filesystem::create_directories(options_.directory);
  }
  context_ = context;
}

TraceSinkStats TraceSink::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TraceSink::ShardWriter::BeginShard(TraceSink& sink, std::uint64_t shard) {
  sink_ = &sink;
  const TraceRunContext& context = sink.context_;
  shard_events_ = 0;
  file_.scenario_name = context.scenario_name;
  file_.fingerprint = context.fingerprint;
  file_.shard = shard;
  file_.slots_per_day = context.slots_per_day;
  file_.days = context.days;
  file_.cells.clear();
  file_.records.clear();
  file_.day_records.clear();
  distiller_.Open(context.slots_per_day, file_.records, file_.day_records);
}

NodeTraceProbe TraceSink::ShardWriter::Probe(std::uint64_t node,
                                             std::uint64_t cell) {
  SHEP_REQUIRE(cell < sink_->context_.cells.size(),
               "traced node references a cell outside the run context");
  if (file_.cells.empty() || file_.cells.back().cell != cell) {
    file_.cells.push_back(sink_->context_.cells[cell]);
  }
  distiller_.BeginNode(node, cell);
  return NodeTraceProbe{&distiller_};
}

void TraceSink::ShardWriter::EndNode() {
  distiller_.EndNode();
  shard_events_ += distiller_.node_slots();
}

void TraceSink::ShardWriter::EndShard() {
  if (!sink_->options_.directory.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(sink_->options_.directory) /
        TraceShardFile::FileName(file_.fingerprint, file_.shard);
    std::ofstream out(path);
    SHEP_REQUIRE(out.good(), "cannot open trace file for writing: " +
                                 path.string());
    file_.Serialize(out);
    out.flush();
    SHEP_REQUIRE(out.good(), "trace file write failed: " + path.string());
  }
  std::lock_guard<std::mutex> lock(sink_->mutex_);
  sink_->stats_.events += shard_events_;
  sink_->stats_.slot_records += file_.records.size();
  sink_->stats_.day_records += file_.day_records.size();
  ++sink_->stats_.shard_files;
}

}  // namespace shep
