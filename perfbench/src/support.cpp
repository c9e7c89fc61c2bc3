#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace

Usage ReadUsage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage usage;
  usage.cpu_s = CpuSeconds(self) + CpuSeconds(children);
  // Linux reports ru_maxrss in KiB.
  usage.self_peak_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  usage.child_peak_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return usage;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---- Json -------------------------------------------------------------------

std::string Json::Quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Json::Key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key);
  body_ += ": ";
}

Json& Json::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  body_ += buffer;
  return *this;
}

Json& Json::Int(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += Quote(value);
  return *this;
}

Json& Json::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

// ---- SpanLog ----------------------------------------------------------------

std::uint32_t SpanLog::Open(const char* name, const char* layer) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.layer = layer;
  span.start_s = NowSeconds() - origin_;
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanLog::Close(std::uint32_t id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[id - 1].end_s = NowSeconds() - origin_;
  open_.pop_back();
}

std::string SpanLog::ToJson() const {
  std::string out = "[";
  for (const Span& span : spans_) {
    if (out.size() > 1) out += ",\n";
    out += Json()
               .Int("id", span.id)
               .Int("parent", span.parent)
               .Str("name", span.name)
               .Str("layer", span.layer)
               .Num("start_s", span.start_s)
               .Num("end_s", span.end_s)
               .str();
  }
  return out + "]\n";
}

}  // namespace perfbench
