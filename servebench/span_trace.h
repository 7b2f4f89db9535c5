// Copyright (c) Eleos reproduction authors. MIT license.
//
// Benchmark-side tracing for the serving benchmark: spans recorded from the
// benchmark's own code around each call into a layer's public functions, and
// a MemRegion decorator that times what KvCache asks of its memory backend
// (SUVM or the SGX driver). Nothing here touches the simulator, so a traced
// run charges exactly the virtual cycles an untraced run does; only host time
// differs (reported as host.trace_overhead_share).
//
// A span holds its name, host-ns start/end, virtual-cycle start/end (read
// from the CPU the call was charged to), its parent span and the request id.
// Spans stay in memory until the run ends. Every call the benchmark traces
// runs on the benchmark's main thread, so the tracer is single-threaded by
// contract.

#ifndef ELEOS_SERVEBENCH_SPAN_TRACE_H_
#define ELEOS_SERVEBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/mem_region.h"
#include "src/sim/vclock.h"

namespace eleos::servebench {

inline uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = nullptr;  // string literal
  uint32_t parent = 0;         // 1-based index of the parent span; 0 = root
  uint32_t request = 0;
  uint64_t host_start = 0;
  uint64_t host_end = 0;
  uint64_t vcycle_start = 0;
  uint64_t vcycle_end = 0;
};

class SpanTracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_request(uint32_t request) { request_ = request; }

  // Returns the 1-based span index, or 0 when tracing is off.
  uint32_t Open(const char* name, const sim::CpuContext* cpu) {
    if (!enabled_) {
      return 0;
    }
    SpanRecord s;
    s.name = name;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.request = request_;
    s.vcycle_start = cpu != nullptr ? cpu->clock.now() : 0;
    s.host_start = HostNs();
    spans_.push_back(s);
    const auto index = static_cast<uint32_t>(spans_.size());
    stack_.push_back(index);
    return index;
  }
  void Close(uint32_t index, const sim::CpuContext* cpu) {
    if (index == 0) {
      return;
    }
    SpanRecord& s = spans_[index - 1];
    s.host_end = HostNs();
    s.vcycle_end = cpu != nullptr ? cpu->clock.now() : s.vcycle_start;
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // One line per span: name, request, parent, host ns, virtual cycles.
  bool WriteCsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "index,name,request,parent,host_start_ns,host_end_ns,"
                    "vcycle_start,vcycle_end\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f, "%zu,%s,%u,%u,%llu,%llu,%llu,%llu\n", i + 1, s.name,
                   s.request, s.parent,
                   static_cast<unsigned long long>(s.host_start),
                   static_cast<unsigned long long>(s.host_end),
                   static_cast<unsigned long long>(s.vcycle_start),
                   static_cast<unsigned long long>(s.vcycle_end));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  uint32_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> stack_;
};

class Span {
 public:
  Span(SpanTracer& tracer, const char* name, const sim::CpuContext* cpu)
      : tracer_(tracer), cpu_(cpu), index_(tracer.Open(name, cpu)) {}
  ~Span() { tracer_.Close(index_, cpu_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer& tracer_;
  const sim::CpuContext* cpu_;
  uint32_t index_;
};

// Times every access KvCache makes to its secure memory. `read_name` and
// `write_name` name the memory layer ("suvm.region_read", ...).
class TracedRegion : public apps::MemRegion {
 public:
  TracedRegion(apps::MemRegion& inner, SpanTracer& tracer,
               const char* read_name, const char* write_name)
      : inner_(inner),
        tracer_(tracer),
        read_name_(read_name),
        write_name_(write_name) {}

  void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) override {
    Span span(tracer_, read_name_, cpu);
    inner_.Read(cpu, off, dst, n);
  }
  void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
             size_t n) override {
    Span span(tracer_, write_name_, cpu);
    inner_.Write(cpu, off, src, n);
  }
  Status TryRead(sim::CpuContext* cpu, uint64_t off, void* dst,
                 size_t n) override {
    Span span(tracer_, read_name_, cpu);
    return inner_.TryRead(cpu, off, dst, n);
  }
  Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                  size_t n) override {
    Span span(tracer_, write_name_, cpu);
    return inner_.TryWrite(cpu, off, src, n);
  }
  size_t size() const override { return inner_.size(); }

 private:
  apps::MemRegion& inner_;
  SpanTracer& tracer_;
  const char* read_name_;
  const char* write_name_;
};

}  // namespace eleos::servebench

#endif  // ELEOS_SERVEBENCH_SPAN_TRACE_H_
