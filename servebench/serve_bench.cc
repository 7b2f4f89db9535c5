// Copyright (c) Eleos reproduction authors. MIT license.
//
// Open-loop serving benchmark. One process stands up an Eleos server on a
// simulated SGX machine with four server CPUs — a KvCache over a MemRegion
// (SUVM or driver-paged enclave memory), an RpcManager and, for the file
// workload, an EnclaveFs over a host MemFs — and drives it with an open-loop
// generator in virtual time. Every answer is checked against a shadow model.
//
// Two clocks are reported. Virtual time (latencies, capacity) is what the
// paper's results are made of; it moves with the sim, suvm and rpc
// mechanisms. Host time (host_kops, setup_s) is what the simulator itself
// costs; it moves with the host code of every layer. It is wall-clock time
// rescaled to a reference core (RefSeconds), so that a co-tenant slowing the
// host core does not read as a change of the program.
//
// Timing rules:
//  * Real AES-GCM sealing everywhere (no SuvmConfig::fast_seal, no
//    SgxDriver::SealMode::kFast).
//  * Open loop at a fixed rate: request i of a pass is due at a uniformly
//    random point of its own slot [start + i / rate, start + (i + 1) / rate),
//    whether or not earlier requests have finished. It is dispatched to the
//    CPU whose clock is lowest (the one that frees up first), and an idle
//    CPU first advances to the due time. Latency = completion clock - due time. Clocks are never reset:
//    one continuous timeline per run; each pass starts when the previous
//    one has drained.
//  * Set-up (building the server, filling the dataset, verifying that
//    every key reads back, warm-up) is timed apart as setup_s.
//
// Usage: serve_bench --workload <name> --seed <n> --seconds <s> --trace 0|1
//        --<parameter> <value> ...   (see servebench/workloads.json)
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones with --trace 1).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "servebench/span_trace.h"
#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/crypto/gcm.h"
#include "src/libos/fs.h"
#include "src/libos/memfs.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/enclave.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/span.h"
#include "src/telemetry/telemetry.h"

namespace eleos::servebench {
namespace {

// Shared by every workload (the file lists what differs between them).
constexpr size_t kCpus = 4;
constexpr size_t kKeyBytes = 20;
constexpr size_t kValueBytes = 1024;
constexpr size_t kRequestHeaderBytes = 64;
constexpr double kZipfTheta = 0.99;         // key popularity skew
constexpr size_t kFsMinIo = 512;            // file I/O sizes, uniform
constexpr size_t kFsMaxIo = 4096;
constexpr double kLadderRatio = 1.0442737824274138;  // 2^(1/16)
constexpr long kLadderHalfRungs = 64;       // ladder spans heavy/16 .. heavy*16
constexpr size_t kWindowRequests = 10000;   // >= 10 samples beyond p99.9
constexpr size_t kChunkRequests = 1000;     // host_kops: median over chunks
constexpr uint64_t kKeyOrderSeed = 0x6b65792d6f726465;  // fixed popularity order
constexpr uint64_t kArrivalSeed = 0xa441f1a15ull;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "serve_bench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Command line: every parameter is `--name value`; workload parameters have
// no defaults here, so workloads.json stays the one place they are set.

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
        Die("expected --name value pairs, got '" + a + "'");
      }
      values_[a.substr(2)] = argv[++i];
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      Die("missing --" + key);
    }
    return it->second;
  }
  std::string Str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double Num(const std::string& key) const {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v) || v < 0) {
      Die("--" + key + " needs a non-negative number, got '" + s + "'");
    }
    return v;
  }
  size_t Count(const std::string& key) const {
    const double v = Num(key);
    if (v != std::floor(v) || v > 1e12) {
      Die("--" + key + " needs a whole number");
    }
    return static_cast<size_t>(v);
  }

 private:
  std::map<std::string, std::string> values_;
};

enum class Memory { kSuvm, kSgx };
enum class Net { kRpcInline, kRpcThreaded, kOcall };

struct Spec {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;

  Memory memory = Memory::kSuvm;
  Net net = Net::kRpcInline;
  double get_share = 1.0;    // GET share of the KvCache operations
  double dataset_mib = 0;    // values stored (value bytes, excluding keys)
  double epc_pp_mib = 0;     // SUVM page cache (EPC++); unused for kSgx
  double fs_file_mib = 0;    // 0: no file step

  double light_kops = 0;     // fixed offered rates (virtual Kops/s)
  double heavy_kops = 0;     // also the centre of the capacity ladder
  double limit_us = 0;       // p99 latency limit (virtual us)

  size_t warmup_requests = 0;
  size_t ladder_requests = 0;
  size_t light_requests = 0;
  size_t heavy_requests = 0;
  size_t trace_requests = 0;
  size_t setup_reps = 0;      // setup_s is the median over this many set-ups

  static Spec From(const Args& a) {
    Spec s;
    s.workload = a.Str("workload");
    s.seed = static_cast<uint64_t>(a.Count("seed"));
    s.seconds = a.Num("seconds");
    s.trace = a.Count("trace") != 0;
    s.out_dir = a.Str("out-dir", "");
    const std::string memory = a.Str("memory");
    if (memory == "suvm") {
      s.memory = Memory::kSuvm;
    } else if (memory == "sgx") {
      s.memory = Memory::kSgx;
    } else {
      Die("--memory must be suvm or sgx");
    }
    const std::string net = a.Str("net");
    if (net == "rpc-inline") {
      s.net = Net::kRpcInline;
    } else if (net == "rpc-threaded") {
      s.net = Net::kRpcThreaded;
    } else if (net == "ocall") {
      s.net = Net::kOcall;
    } else {
      Die("--net must be rpc-inline, rpc-threaded or ocall");
    }
    s.get_share = a.Num("get-share");
    s.dataset_mib = a.Num("dataset-mib");
    s.epc_pp_mib = a.Num("epc-pp-mib");
    s.fs_file_mib = a.Num("fs-file-mib");
    s.light_kops = a.Num("light-kops");
    s.heavy_kops = a.Num("heavy-kops");
    s.limit_us = a.Num("limit-us");
    s.warmup_requests = a.Count("warmup-requests");
    s.ladder_requests = a.Count("ladder-requests");
    s.light_requests = a.Count("light-requests");
    s.heavy_requests = a.Count("heavy-requests");
    s.trace_requests = a.Count("trace-requests");
    s.setup_reps = a.Count("setup-reps");
    if (s.get_share > 1 || s.dataset_mib <= 0 || s.light_kops <= 0 ||
        s.heavy_kops <= 0 || s.limit_us <= 0 ||
        s.setup_reps == 0 || s.ladder_requests < kChunkRequests ||
        s.heavy_requests < kWindowRequests ||
        s.trace_requests < kChunkRequests) {
      Die("workload parameters out of range");
    }
    if (s.memory == Memory::kSuvm && s.epc_pp_mib <= 0) {
      Die("--epc-pp-mib must be positive for SUVM workloads");
    }
    if (s.fs_file_mib > 0 &&
        (s.fs_file_mib * (1 << 20) < kFsMaxIo || s.net == Net::kOcall)) {
      Die("the file step needs --fs-file-mib >= 4 KiB and an RPC --net");
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// Inputs: Zipfian key ranks (Gray et al., as in YCSB) mapped through a fixed
// permutation so popular keys are spread over the whole dataset, and values
// stamped with their key and version so a stale or misplaced value is caught.

class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta2 = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      const double term = 1.0 / std::pow(static_cast<double>(i), theta);
      zetan_ += term;
      if (i <= 2) {
        zeta2 += term;
      }
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Xoshiro256& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const auto r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// [key:8][version:8][pattern derived from both]
void StampValue(uint64_t key, uint64_t version, uint8_t* out, size_t n) {
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &version, 8);
  uint64_t s = Mix(key * 0x100000001b3ull ^ version);
  for (size_t i = 16; i < n; i += 8) {
    s = Mix(s);
    std::memcpy(out + i, &s, std::min<size_t>(8, n - i));
  }
}

struct KeyName {
  char text[32];  // "key-" + 16 digits = kKeyBytes; room for the terminator
  explicit KeyName(uint64_t key) {
    std::snprintf(text, sizeof(text), "key-%016llu",
                  static_cast<unsigned long long>(key));
  }
  std::string_view view() const { return {text, kKeyBytes}; }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// ---------------------------------------------------------------------------
// Host time on a reference core. The host's other tenants slow the
// table-lookup code that dominates a request's host time (T-table AES in the
// AES-GCM sealing of pages) by up to 40% for seconds at a time, and
// differently on each core; wall-clock alone would report that as a change of
// the program. So each timed host interval is followed by a fixed kernel of
// the benchmark's own, shaped like T-table AES rounds, and the interval is
// scaled by the kernel's nominal time over its time right then: the seconds
// the interval would have taken on a core running at the nominal speed. Over
// 1000-request chunks the request rate moved with this kernel's speed at a
// log-log slope of 1.07; a serial GHASH-style table walk, an L2-sized pointer
// chase and 4 KiB page copies moved less than the requests did.

constexpr int kRefRounds = 40000;
// The kernel's time on an uncontended core of the machine the fixed rates
// were set on (4-vCPU KVM guest of a 2.0 GHz Xeon, Sapphire Rapids).
constexpr double kRefNominalNs = 230000;

uint32_t g_ref_sink = 1;  // keeps the kernel's result live

// Four lanes of lookups into 4 KiB of tables per round.
uint64_t RefKernelNs() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(4 * 256);
    Xoshiro256 g(0x7265662d6b65726eull);
    for (uint32_t& w : t) {
      w = static_cast<uint32_t>(g.Next());
    }
    return t;
  }();
  const uint32_t* t0 = table.data();
  const uint32_t* t1 = t0 + 256;
  const uint32_t* t2 = t0 + 512;
  const uint32_t* t3 = t0 + 768;
  uint32_t s0 = g_ref_sink, s1 = 1, s2 = 2, s3 = 3;
  const uint64_t start = HostNs();
  for (int r = 0; r < kRefRounds; ++r) {
    const uint32_t n0 = t0[s0 & 255] ^ t1[(s1 >> 8) & 255] ^
                        t2[(s2 >> 16) & 255] ^ t3[s3 >> 24];
    const uint32_t n1 = t0[s1 & 255] ^ t1[(s2 >> 8) & 255] ^
                        t2[(s3 >> 16) & 255] ^ t3[s0 >> 24];
    const uint32_t n2 = t0[s2 & 255] ^ t1[(s3 >> 8) & 255] ^
                        t2[(s0 >> 16) & 255] ^ t3[s1 >> 24];
    const uint32_t n3 = t0[s3 & 255] ^ t1[(s0 >> 8) & 255] ^
                        t2[(s1 >> 16) & 255] ^ t3[s2 >> 24];
    s0 = n0 ^ static_cast<uint32_t>(r);
    s1 = n1;
    s2 = n2;
    s3 = n3;
  }
  const uint64_t end = HostNs();
  g_ref_sink = s0 ^ s1 ^ s2 ^ s3;
  return end - start;
}

// Reference-core seconds of the `wall_ns` host nanoseconds that just passed.
double RefSeconds(uint64_t wall_ns) {
  return static_cast<double>(wall_ns) * 1e-9 * kRefNominalNs /
         static_cast<double>(RefKernelNs());
}

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// ---------------------------------------------------------------------------
// The server under test.

struct Server {
  // Pool sized for the slab classes: every item needs one chunk of its class,
  // plus one spare slab so an overwrite always finds a free chunk (KvCache
  // keeps the old record until the new one is written) and never evicts.
  static size_t PoolBytes(size_t items) {
    const apps::SlabAllocator probe(0);
    const int cls = probe.ClassFor(8 + kKeyBytes + kValueBytes);
    const size_t per_slab =
        apps::SlabAllocator::kSlabBytes / probe.ChunkSize(cls);
    return ((items + per_slab - 1) / per_slab + 1) *
           apps::SlabAllocator::kSlabBytes;
  }

  Server(const Spec& spec, size_t items, SpanTracer& tracer) {
    enclave = std::make_unique<sim::Enclave>(machine, "kv-server");
    const size_t pool = PoolBytes(items);
    if (spec.memory == Memory::kSuvm) {
      suvm::SuvmConfig sc;
      sc.epc_pp_pages = static_cast<size_t>(spec.epc_pp_mib * (1 << 20)) /
                        sim::kPageSize;
      sc.backing_bytes = NextPow2(pool + (1 << 20));
      suvm = std::make_unique<suvm::Suvm>(*enclave, sc);
      memory = std::make_unique<apps::SuvmRegion>(*suvm, pool);
      region = std::make_unique<TracedRegion>(*memory, tracer,
                                              "suvm.region_read",
                                              "suvm.region_write");
    } else {
      memory = std::make_unique<apps::EnclaveRegion>(*enclave, pool);
      region = std::make_unique<TracedRegion>(*memory, tracer,
                                              "sgx.region_read",
                                              "sgx.region_write");
    }
    if (spec.net != Net::kOcall) {
      rpc::RpcManager::Options ro;
      ro.mode = spec.net == Net::kRpcThreaded ? rpc::RpcManager::Mode::kThreaded
                                              : rpc::RpcManager::Mode::kInline;
      ro.use_cat = true;
      ro.workers = 1;
      rpc = std::make_unique<rpc::RpcManager>(*enclave, ro);
    }
    if (spec.fs_file_mib > 0) {
      fs = std::make_unique<libos::EnclaveFs>(*enclave, host_fs,
                                              libos::ExitMode::kRpc, rpc.get());
    }
    apps::KvCache::Options ko;
    ko.pool_bytes = pool;
    ko.hash_buckets = NextPow2(items);
    cache = std::make_unique<apps::KvCache>(machine, *region, ko);
    for (size_t c = 0; c < kCpus; ++c) {
      sim::CpuContext& cpu = machine.cpu(c);
      enclave->Enter(cpu);
      if (rpc != nullptr) {
        cpu.cos = rpc->enclave_cos();
      }
    }
  }

  ~Server() {
    for (size_t c = 0; c < kCpus; ++c) {
      enclave->Exit(machine.cpu(c));
    }
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Declaration order is teardown order, reversed: the cache goes before its
  // region, the file layer before the RPC manager, all before the enclave.
  sim::Machine machine;  // default MachineConfig: real sealing
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<apps::MemRegion> memory;
  std::unique_ptr<TracedRegion> region;
  std::unique_ptr<rpc::RpcManager> rpc;
  libos::MemFs host_fs;
  std::unique_ptr<libos::EnclaveFs> fs;
  int fd = -1;
  std::unique_ptr<apps::KvCache> cache;
};

// Live counters read before and after a traced pass.
struct Counters {
  uint64_t suvm_major = 0, suvm_minor = 0, suvm_evictions = 0;
  uint64_t suvm_writebacks = 0, suvm_clean_drops = 0, suvm_gate_wait = 0;
  uint64_t sgx_faults = 0, sgx_evictions = 0, sgx_ipis = 0;
  uint64_t rpc_calls = 0, rpc_fallbacks = 0;
  uint64_t iago_rejects = 0;
  uint64_t kv_gets = 0, kv_hits = 0, kv_evictions = 0;
  uint64_t cycles[telemetry::kNumCostCategories] = {};
  uint64_t major_fault_buckets[telemetry::Histogram::kBuckets] = {};
};

struct PassResult {
  std::vector<double> lat_us;     // per request, in dispatch order
  std::vector<double> chunk_kops; // host throughput per chunk
  double host_s = 0;              // reference-core seconds of the whole pass
  size_t failed = 0;

  // Latency percentile of the pass: the median over consecutive windows of
  // the per-window percentile, so one burst cannot move the figure alone.
  double P(double p) const {
    const size_t windows = std::max<size_t>(1, lat_us.size() / kWindowRequests);
    std::vector<double> per_window;
    for (size_t w = 0; w < windows; ++w) {
      const auto first =
          lat_us.begin() + static_cast<ptrdiff_t>(w * kWindowRequests);
      const auto last = w + 1 == windows ? lat_us.end()
                                         : first + static_cast<ptrdiff_t>(kWindowRequests);
      per_window.push_back(Percentile({first, last}, p));
    }
    return Median(per_window);
  }
  // Margin of the pass criterion, in log units; the pass meets it when the
  // margin is <= 0. The criterion: p99 within the limit and no backlog that
  // keeps growing, where a growing backlog is a last quarter that waits both
  // longer than half the limit and 1.5x longer than the first half.
  double Margin(double limit_us) const {
    const size_t n = lat_us.size();
    double early = 0, late = 0;
    for (size_t i = 0; i < n / 2; ++i) {
      early += lat_us[i];
    }
    for (size_t i = n - n / 4; i < n; ++i) {
      late += lat_us[i];
    }
    early /= static_cast<double>(n / 2);
    late /= static_cast<double>(n / 4);
    const double growth =
        std::min(std::log(late / (0.5 * limit_us)), std::log(late / (1.5 * early)));
    return std::max(std::log(P(0.99) / limit_us), growth);
  }
  size_t Misses(double limit_us) const {
    size_t m = failed;
    for (double l : lat_us) {
      m += l > limit_us ? 1 : 0;
    }
    return std::min(m, lat_us.size());
  }
};

// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Spec& spec)
      : spec_(spec),
        items_(static_cast<size_t>(spec.dataset_mib * (1 << 20)) / kValueBytes),
        zipf_(items_, kZipfTheta),
        inputs_(spec.seed),
        arrivals_(spec.seed ^ kArrivalSeed) {
    if (items_ < 16) {
      Die("dataset too small");
    }
    rank_to_key_.resize(items_);
    for (size_t i = 0; i < items_; ++i) {
      rank_to_key_[i] = static_cast<uint32_t>(i);
    }
    Xoshiro256 order(kKeyOrderSeed);
    for (size_t i = items_ - 1; i > 0; --i) {
      std::swap(rank_to_key_[i], rank_to_key_[order.NextBelow(i + 1)]);
    }
    buf_.resize(std::max(kValueBytes, kFsMaxIo) + 64);
    expect_.resize(buf_.size());
  }

  // Builds the server, fills it, proves every key reads back, then warms up
  // at the heavy rate. Each call starts from scratch with the same inputs,
  // so repeated set-ups do identical work. Returns reference-core seconds.
  double Setup() {
    server_.reset();
    double host_s = 0;
    uint64_t t0 = HostNs();
    auto lap = [&] {  // every kChunkRequests items, as a pass does
      host_s += RefSeconds(HostNs() - t0);
      t0 = HostNs();
    };
    inputs_ = Xoshiro256(spec_.seed);
    arrivals_ = Xoshiro256(spec_.seed ^ kArrivalSeed);
    server_ = std::make_unique<Server>(spec_, items_, tracer_);
    Server& s = *server_;
    versions_.assign(items_, 1);
    for (size_t k = 0; k < items_; ++k) {
      StampValue(k, 1, buf_.data(), kValueBytes);
      if (!s.cache->Set(nullptr, KeyName(k).view(), buf_.data(),
                        kValueBytes)) {
        Die("fill: SET of key " + std::to_string(k) + " failed: " +
            s.cache->last_status().ToString());
      }
      if ((k + 1) % kChunkRequests == 0) {
        lap();
      }
    }
    lap();
    // Newest first: the tail of the fill is still resident, so the check
    // pages in each evicted page once instead of cycling the whole dataset.
    for (size_t k = items_; k-- > 0;) {
      const int64_t n = s.cache->Get(nullptr, KeyName(k).view(), buf_.data(),
                                     buf_.size());
      StampValue(k, 1, expect_.data(), kValueBytes);
      if (n != static_cast<int64_t>(kValueBytes) ||
          std::memcmp(buf_.data(), expect_.data(), kValueBytes) != 0) {
        Die("fill: key " + std::to_string(k) + " does not read back (" +
            std::to_string(n) + ")");
      }
      if (k % kChunkRequests == 0) {
        lap();
      }
    }
    if (s.cache->stats().evictions != 0) {
      Die("fill: the pool evicted items");
    }
    if (spec_.fs_file_mib > 0) {
      const size_t file_bytes =
          static_cast<size_t>(spec_.fs_file_mib * (1 << 20));
      fs_shadow_.resize(file_bytes);
      Xoshiro256 content(spec_.seed ^ 0xf11eull);
      content.FillBytes(fs_shadow_.data(), file_bytes);
      const int host_fd = s.host_fs.Open(
          "/srv/data", libos::kRdWr | libos::kCreate | libos::kTrunc);
      if (host_fd < 0 ||
          s.host_fs.Pwrite(host_fd, fs_shadow_.data(), file_bytes, 0) !=
              static_cast<int64_t>(file_bytes) ||
          s.host_fs.Close(host_fd) != 0) {
        Die("fill: could not create the host file");
      }
      s.fd = s.fs->Open(nullptr, "/srv/data", libos::kRdWr);
      if (s.fd < 0) {
        Die("fill: EnclaveFs could not open the host file");
      }
    }
    lap();
    return host_s + RunPass(spec_.heavy_kops, spec_.warmup_requests).host_s;
  }

  // One open-loop pass at `rate_kops`: n requests, one due in each slot of
  // 1/rate, starting once the previous pass has drained. Host time is sampled every
  // kChunkRequests, in reference-core seconds.
  PassResult RunPass(double rate_kops, size_t n) {
    sim::Machine& m = server_->machine;
    PassResult r;
    r.lat_us.reserve(n);
    const double cycles_per_us = m.costs().cpu_ghz * 1e3;
    const double gap = cycles_per_us * 1e3 / rate_kops;
    const auto start = static_cast<double>(m.MaxClock());
    uint64_t chunk_t0 = HostNs();
    for (size_t i = 0; i < n; ++i) {
      const double due =
          start + (static_cast<double>(i) + arrivals_.NextDouble()) * gap;
      // Due times are continuous; a CPU starts work on the next whole cycle.
      const auto start_cycles = static_cast<uint64_t>(std::ceil(due));
      sim::CpuContext* cpu = &m.cpu(0);
      for (size_t c = 1; c < kCpus; ++c) {
        if (m.cpu(c).clock.now() < cpu->clock.now()) {
          cpu = &m.cpu(c);
        }
      }
      if (cpu->clock.now() < start_cycles) {
        cpu->clock.Advance(start_cycles - cpu->clock.now());  // idle
      }
      if (!Serve(*cpu)) {
        ++r.failed;
      }
      r.lat_us.push_back((static_cast<double>(cpu->clock.now()) - due) /
                         cycles_per_us);
      if ((i + 1) % kChunkRequests == 0) {
        const double chunk_s = RefSeconds(HostNs() - chunk_t0);
        r.host_s += chunk_s;
        r.chunk_kops.push_back(static_cast<double>(kChunkRequests) /
                               chunk_s * 1e-3);
        chunk_t0 = HostNs();
      }
    }
    if (n % kChunkRequests != 0) {
      r.host_s += RefSeconds(HostNs() - chunk_t0);
    }
    return r;
  }

  Server& server() { return *server_; }
  SpanTracer& tracer() { return tracer_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  size_t items() const { return items_; }

  Counters Snapshot() {
    Server& s = *server_;
    Counters c;
    if (s.suvm != nullptr) {
      const suvm::Suvm::Stats& st = s.suvm->stats();
      c.suvm_major = st.major_faults.load();
      c.suvm_minor = st.minor_faults.load();
      c.suvm_evictions = st.evictions.load();
      c.suvm_writebacks = st.writebacks.load();
      c.suvm_clean_drops = st.clean_drops.load();
      c.suvm_gate_wait = st.gate_wait_cycles.load();
    }
    const sim::SgxDriver::Stats& ds = s.machine.driver().stats();
    c.sgx_faults = ds.faults;
    c.sgx_evictions = ds.evictions;
    c.sgx_ipis = ds.ipis;
    if (s.rpc != nullptr) {
      c.rpc_calls = s.rpc->calls();
      c.rpc_fallbacks = s.rpc->fallback_ocalls();
    }
    if (s.fs != nullptr) {
      c.iago_rejects = s.fs->iago_rejects();
    }
    c.kv_gets = s.cache->stats().gets;
    c.kv_hits = s.cache->stats().get_hits;
    c.kv_evictions = s.cache->stats().evictions;
    telemetry::Registry& reg = s.machine.metrics();
    for (size_t i = 0; i < telemetry::kNumCostCategories; ++i) {
      c.cycles[i] =
          reg.GetCounter(std::string("sim.cycles.") +
                         telemetry::CostCategoryName(
                             static_cast<telemetry::CostCategory>(i)))
              ->value();
    }
    const telemetry::Histogram* h = reg.GetHistogram("suvm.major_fault_cycles");
    for (size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
      c.major_fault_buckets[b] = h->bucket(b);
    }
    return c;
  }

 private:
  // One request: the network exchange, AES-CTR on request and response, the
  // file step (if any), then the KvCache operation. Every answer is checked.
  bool Serve(sim::CpuContext& cpu) {
    Server& s = *server_;
    ++attempted_;
    tracer_.set_request(static_cast<uint32_t>(attempted_));
    Span request(tracer_, "request", &cpu);
    const size_t io = kRequestHeaderBytes + kValueBytes;
    if (s.rpc != nullptr) {
      Span net(tracer_, "rpc.call", &cpu);
      s.rpc->Call(&cpu, io, [] {});
    } else {
      Span net(tracer_, "enclave.ocall", &cpu);
      s.enclave->Ocall(cpu, io, [] {});
    }
    {
      Span ctr(tracer_, "crypto.ctr", &cpu);
      s.enclave->ChargeCtr(&cpu, io);
    }
    bool ok = true;
    if (s.fs != nullptr) {
      ok = FileStep(cpu) && ok;
    }
    ok = KvStep(cpu) && ok;
    if (!ok) {
      ++failed_;
    }
    return ok;
  }

  bool FileStep(sim::CpuContext& cpu) {
    Server& s = *server_;
    const size_t len = kFsMinIo + inputs_.NextBelow(kFsMaxIo - kFsMinIo + 1);
    const uint64_t off = inputs_.NextBelow(fs_shadow_.size() - len + 1);
    const bool write = inputs_.NextDouble() < 0.5;
    if (write) {
      StampValue(~uint64_t{0}, attempted_, buf_.data(), len);
      int64_t r = 0;
      {
        Span op(tracer_, "libos.pwrite", &cpu);
        r = s.fs->Pwrite(&cpu, s.fd, buf_.data(), len, off);
      }
      if (r != static_cast<int64_t>(len)) {
        return false;
      }
      std::memcpy(fs_shadow_.data() + off, buf_.data(), len);
      return true;
    }
    int64_t r = 0;
    {
      Span op(tracer_, "libos.pread", &cpu);
      r = s.fs->Pread(&cpu, s.fd, buf_.data(), len, off);
    }
    Span check(tracer_, "bench.check", &cpu);
    return r == static_cast<int64_t>(len) &&
           std::memcmp(buf_.data(), fs_shadow_.data() + off, len) == 0;
  }

  bool KvStep(sim::CpuContext& cpu) {
    Server& s = *server_;
    const uint64_t key = rank_to_key_[zipf_.Next(inputs_)];
    const KeyName name(key);
    if (inputs_.NextDouble() < spec_.get_share) {
      int64_t n = 0;
      {
        Span op(tracer_, "apps.kv_get", &cpu);
        n = s.cache->Get(&cpu, name.view(), buf_.data(), buf_.size());
      }
      Span check(tracer_, "bench.check", &cpu);
      if (n != static_cast<int64_t>(kValueBytes)) {
        return false;  // miss (-1), corruption (-2), region failure (-3)
      }
      StampValue(key, versions_[key], expect_.data(), kValueBytes);
      return std::memcmp(buf_.data(), expect_.data(), kValueBytes) == 0;
    }
    StampValue(key, versions_[key] + 1, buf_.data(), kValueBytes);
    bool stored = false;
    {
      Span op(tracer_, "apps.kv_set", &cpu);
      stored = s.cache->Set(&cpu, name.view(), buf_.data(), kValueBytes);
    }
    if (stored) {
      ++versions_[key];
    }
    return stored;
  }

  const Spec& spec_;
  size_t items_;
  Zipf zipf_;
  std::vector<uint32_t> rank_to_key_;
  Xoshiro256 inputs_;    // keys, operations, file offsets
  Xoshiro256 arrivals_;  // position of each arrival within its slot
  SpanTracer tracer_;
  std::unique_ptr<Server> server_;
  std::vector<uint64_t> versions_;   // shadow: current version of each key
  std::vector<uint8_t> fs_shadow_;   // shadow: host file contents
  std::vector<uint8_t> buf_;
  std::vector<uint8_t> expect_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintResult(const Bench& bench, const std::vector<Metric>& metrics) {
  const bool correct = bench.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Capacity: binary search over the fixed ladder heavy * 2^(k/16), k in
// [-kLadderHalfRungs, kLadderHalfRungs), for the highest rung whose pass has
// no failed request and meets the criterion of PassResult::Margin. Between
// that rung and the first one above it, the margin is interpolated linearly
// in log rate to its zero, so the figure is not quantized to the ladder step;
// when the rung above failed requests there is no margin and the lower rung's
// rate stands. A capacity off either end of the ladder is not measured:
// nullopt.
std::optional<double> Capacity(Bench& bench, const Spec& spec) {
  struct Rung {
    bool ok = false;
    bool failed = false;  // some request failed
    double margin = 0;
  };
  std::map<long, Rung> seen;
  auto rate = [&](long k) {
    return spec.heavy_kops * std::pow(kLadderRatio, static_cast<double>(k));
  };
  auto eval = [&](long k) -> const Rung& {
    auto it = seen.find(k);
    if (it == seen.end()) {
      const PassResult p = bench.RunPass(rate(k), spec.ladder_requests);
      Rung r;
      r.failed = p.failed != 0;
      r.margin = p.Margin(spec.limit_us);
      r.ok = !r.failed && r.margin <= 0;
      std::fprintf(stderr, "  ladder rung %ld: %.1f Kops/s  p99 %.2f us  "
                           "margin %.3f  %s\n",
                   k, rate(k), p.P(0.99), r.margin, r.ok ? "ok" : "over");
      it = seen.emplace(k, r).first;
    }
    return it->second;
  };
  long lo = -kLadderHalfRungs - 1;
  long hi = kLadderHalfRungs;
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (eval(mid).ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (lo < -kLadderHalfRungs || hi >= kLadderHalfRungs) {
    std::fprintf(stderr, "serve_bench: capacity is off the ladder "
                         "(%.1f to %.1f Kops/s)\n",
                 rate(-kLadderHalfRungs), rate(kLadderHalfRungs - 1));
    return std::nullopt;
  }
  if (seen[hi].failed) {
    return rate(lo);
  }
  const double m_lo = seen[lo].margin;
  const double m_hi = seen[hi].margin;
  return rate(lo) * std::pow(kLadderRatio, -m_lo / (m_hi - m_lo));
}

int RunEndToEnd(Bench& bench, const Spec& spec) {
  std::vector<double> setups;
  for (size_t i = 0; i < spec.setup_reps; ++i) {
    setups.push_back(bench.Setup());
    std::fprintf(stderr, "setup %zu: %.3f s (%zu items)\n", i, setups.back(),
                 bench.items());
  }
  const uint64_t t0 = HostNs();
  const std::optional<double> measured = Capacity(bench, spec);
  if (!measured) {
    return 1;
  }
  const double capacity = *measured;
  const PassResult light = bench.RunPass(spec.light_kops, spec.light_requests);
  const PassResult heavy = bench.RunPass(spec.heavy_kops, spec.heavy_requests);
  std::vector<double> chunks = heavy.chunk_kops;
  // Host throughput only: keep serving at the heavy rate until the run's
  // measuring time is used, so host_kops is a median over many chunks.
  while (static_cast<double>(HostNs() - t0) * 1e-9 < spec.seconds) {
    const PassResult more = bench.RunPass(spec.heavy_kops, kChunkRequests);
    chunks.insert(chunks.end(), more.chunk_kops.begin(), more.chunk_kops.end());
  }
  std::fprintf(stderr,
               "capacity %.2f Kops/s; light %.0f Kops/s p50 %.3f p99 %.3f us; "
               "heavy %.0f Kops/s p50 %.3f p99 %.3f p99.9 %.3f us "
               "(%zu samples, slo miss %.5f); host %zu chunks, %.3f s\n",
               capacity, spec.light_kops, light.P(0.5), light.P(0.99),
               spec.heavy_kops, heavy.P(0.5), heavy.P(0.99), heavy.P(0.999),
               heavy.lat_us.size(),
               static_cast<double>(heavy.Misses(spec.limit_us)) /
                   static_cast<double>(heavy.lat_us.size()),
               chunks.size(), static_cast<double>(HostNs() - t0) * 1e-9);
  PrintResult(bench, {
                         {"capacity_kops", capacity, "Kops/s"},
                         {"lat_p50_us.light", light.P(0.5), "us"},
                         {"lat_p99_us.light", light.P(0.99), "us"},
                         {"lat_p50_us.heavy", heavy.P(0.5), "us"},
                         {"lat_p99_us.heavy", heavy.P(0.99), "us"},
                         {"lat_p999_us.heavy", heavy.P(0.999), "us"},
                         {"host_kops", Median(chunks), "Kops/s"},
                         {"setup_s", Median(setups), "s"},
                         {"host_rss_mib", PeakRssMib(), "MiB"},
                     });
  return bench.failed() == 0 ? 0 : 1;
}

// Host cost of one AES-GCM Seal/Open of a 4 KiB page: the unit of work SUVM
// and the SGX driver pay per page-in and write-back. Median of several batches.
std::pair<double, double> GcmPageCostUs() {
  uint8_t key[crypto::kAes128KeySize] = {7};
  const crypto::AesGcm gcm(key);
  std::vector<uint8_t> plain(sim::kPageSize), sealed(sim::kPageSize),
      back(sim::kPageSize);
  Xoshiro256(1).FillBytes(plain.data(), plain.size());
  uint8_t nonce[crypto::kGcmNonceSize] = {1};
  uint8_t tag[crypto::kGcmTagSize] = {};
  const uint64_t aad = 42;
  constexpr int kBatch = 32;
  std::vector<double> seal_us, open_us;
  for (int rep = 0; rep < 7; ++rep) {
    uint64_t t0 = HostNs();
    for (int i = 0; i < kBatch; ++i) {
      nonce[0] = static_cast<uint8_t>(i);
      gcm.Seal(nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
               plain.data(), plain.size(), sealed.data(), tag);
    }
    seal_us.push_back(static_cast<double>(HostNs() - t0) * 1e-3 / kBatch);
    t0 = HostNs();
    bool ok = true;
    for (int i = 0; i < kBatch; ++i) {
      ok = gcm.Open(nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
                    sealed.data(), sealed.size(), tag, back.data()) && ok;
    }
    open_us.push_back(static_cast<double>(HostNs() - t0) * 1e-3 / kBatch);
    if (!ok || back != plain) {
      Die("AES-GCM calibration failed to round-trip");
    }
  }
  return {Median(open_us), Median(seal_us)};
}

// Per-span-name aggregates: self time = duration minus direct children.
struct SpanAgg {
  uint64_t count = 0;
  double self_host_ns = 0;
  double self_vcycles = 0;
  double total_vcycles = 0;
  std::vector<double> host_us;  // total duration per span
  std::vector<double> vcycles;
};

std::map<std::string, SpanAgg> AggregateSpans(const SpanTracer& tracer) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<double> child_host(spans.size(), 0), child_v(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_host[s.parent - 1] += static_cast<double>(s.host_end - s.host_start);
      child_v[s.parent - 1] += static_cast<double>(s.vcycle_end - s.vcycle_start);
    }
  }
  std::map<std::string, SpanAgg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const auto host = static_cast<double>(s.host_end - s.host_start);
    const auto v = static_cast<double>(s.vcycle_end - s.vcycle_start);
    SpanAgg& a = by_name[s.name];
    ++a.count;
    a.self_host_ns += host - child_host[i];
    a.self_vcycles += v - child_v[i];
    a.total_vcycles += v;
    a.host_us.push_back(host * 1e-3);
    a.vcycles.push_back(v);
  }
  return by_name;
}

// The traced run: set-up, the untraced heavy pass (for slo_miss_share.heavy),
// then blocks at the heavy rate that alternate untraced and traced, so the
// host-time comparison behind host.trace_overhead_share is not skewed by
// drift. Counters cover all the blocks; spans only the traced ones.
int RunTraced(Bench& bench, const Spec& spec) {
  constexpr size_t kBlocks = 4;
  bench.Setup();
  const PassResult heavy = bench.RunPass(spec.heavy_kops, spec.heavy_requests);
  const size_t block = std::max(spec.trace_requests / kBlocks, kChunkRequests);
  std::vector<double> untraced_chunks, traced_chunks;
  const Counters before = bench.Snapshot();
  for (size_t b = 0; b < kBlocks; ++b) {
    const PassResult plain = bench.RunPass(spec.heavy_kops, block);
    bench.tracer().set_enabled(true);
    const PassResult traced = bench.RunPass(spec.heavy_kops, block);
    bench.tracer().set_enabled(false);
    untraced_chunks.insert(untraced_chunks.end(), plain.chunk_kops.begin(),
                           plain.chunk_kops.end());
    traced_chunks.insert(traced_chunks.end(), traced.chunk_kops.begin(),
                         traced.chunk_kops.end());
  }
  const Counters after = bench.Snapshot();
  const auto [gcm_open_us, gcm_seal_us] = GcmPageCostUs();

  // Counts are per request over every block; span figures over traced ones.
  const auto ops = static_cast<double>(2 * kBlocks * block);
  const auto traced_ops = static_cast<double>(kBlocks * block);
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, SpanAgg> spans = AggregateSpans(bench.tracer());
  auto mean_self_us = [&](const char* name) {
    const SpanAgg& a = spans[name];
    return share(a.self_host_ns * 1e-3, static_cast<double>(a.count));
  };
  auto calls = [&](const char* name) { return static_cast<double>(spans[name].count); };

  const double major = d(after.suvm_major, before.suvm_major);
  const double minor = d(after.suvm_minor, before.suvm_minor);
  const double evictions = d(after.suvm_evictions, before.suvm_evictions);
  const double writebacks = d(after.suvm_writebacks, before.suvm_writebacks);
  const double sgx_faults = d(after.sgx_faults, before.sgx_faults);
  const double sgx_evictions = d(after.sgx_evictions, before.sgx_evictions);
  uint64_t fault_buckets[telemetry::Histogram::kBuckets];
  for (size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
    fault_buckets[b] = after.major_fault_buckets[b] - before.major_fault_buckets[b];
  }
  const double rpc_calls = d(after.rpc_calls, before.rpc_calls);
  const double kv_gets = d(after.kv_gets, before.kv_gets);
  const SpanAgg& net = spans["rpc.call"];
  const double region_calls =
      calls("suvm.region_read") + calls("suvm.region_write");
  const double fs_calls = calls("libos.pread") + calls("libos.pwrite");
  const double untraced_kops = Median(untraced_chunks);
  const double traced_kops = Median(traced_chunks);

  std::vector<Metric> m = {
      {"suvm.major_faults_per_op", major / ops, "count/op"},
      {"suvm.faults_per_op", (major + minor) / ops, "count/op"},
      {"suvm.minor_fault_share", share(minor, major + minor), "ratio"},
      {"suvm.major_fault_cycles.p50",
       telemetry::PercentileFromBuckets(fault_buckets, 50), "cycles"},
      {"suvm.major_fault_cycles.p99",
       telemetry::PercentileFromBuckets(fault_buckets, 99), "cycles"},
      {"suvm.gate_wait_cycles_per_op",
       d(after.suvm_gate_wait, before.suvm_gate_wait) / ops, "cycles/op"},
      {"suvm.writebacks_per_op", writebacks / ops, "count/op"},
      {"suvm.evictions_per_op", evictions / ops, "count/op"},
      {"suvm.clean_drop_share",
       share(d(after.suvm_clean_drops, before.suvm_clean_drops), evictions),
       "ratio"},
      {"suvm.region_read.host_us", mean_self_us("suvm.region_read"), "us"},
      {"suvm.region_write.host_us", mean_self_us("suvm.region_write"), "us"},
      {"suvm.region.calls_per_op", region_calls / traced_ops, "count/op"},
      {"suvm.region.cycles_per_op",
       (spans["suvm.region_read"].total_vcycles +
        spans["suvm.region_write"].total_vcycles) / traced_ops,
       "cycles/op"},
      {"crypto.gcm_open_4k.host_us", gcm_open_us, "us"},
      {"crypto.gcm_seal_4k.host_us", gcm_seal_us, "us"},
      {"crypto.pages_per_op",
       (major + writebacks + sgx_faults + sgx_evictions) / ops, "count/op"},
      {"sgx.faults_per_op", sgx_faults / ops, "count/op"},
      {"sgx.evictions_per_op", sgx_evictions / ops, "count/op"},
      {"sgx.ipis_per_op", d(after.sgx_ipis, before.sgx_ipis) / ops, "count/op"},
      {"sgx.region_read.host_us", mean_self_us("sgx.region_read"), "us"},
  };
  for (size_t i = 0; i < telemetry::kNumCostCategories; ++i) {
    m.push_back({std::string("sim.cycles.") +
                     telemetry::CostCategoryName(
                         static_cast<telemetry::CostCategory>(i)) +
                     "_per_op",
                 d(after.cycles[i], before.cycles[i]) / ops, "cycles/op"});
  }
  const std::vector<Metric> rest = {
      {"rpc.call.host_us.p50", Percentile(net.host_us, 0.5), "us"},
      {"rpc.call.host_us.p99", Percentile(net.host_us, 0.99), "us"},
      {"rpc.call_cycles.p50", Percentile(net.vcycles, 0.5), "cycles"},
      {"rpc.call_cycles.p99", Percentile(net.vcycles, 0.99), "cycles"},
      {"rpc.calls_per_op", rpc_calls / ops, "count/op"},
      {"rpc.fallback_share",
       share(d(after.rpc_fallbacks, before.rpc_fallbacks), rpc_calls), "ratio"},
      {"libos.pread.host_us", mean_self_us("libos.pread"), "us"},
      {"libos.pwrite.host_us", mean_self_us("libos.pwrite"), "us"},
      {"libos.fs.calls_per_op", fs_calls / traced_ops, "count/op"},
      {"libos.fs.cycles_per_call",
       share(spans["libos.pread"].total_vcycles +
                 spans["libos.pwrite"].total_vcycles,
             fs_calls),
       "cycles"},
      {"libos.iago_rejects", d(after.iago_rejects, before.iago_rejects),
       "count"},
      {"apps.kv_get.host_us", mean_self_us("apps.kv_get"), "us"},
      {"apps.kv_set.host_us", mean_self_us("apps.kv_set"), "us"},
      {"apps.kv.self_cycles_per_op",
       (spans["apps.kv_get"].self_vcycles + spans["apps.kv_set"].self_vcycles) /
           traced_ops,
       "cycles/op"},
      {"apps.kv.gets_per_op", kv_gets / ops, "count/op"},
      {"apps.kv.hit_share", share(d(after.kv_hits, before.kv_hits), kv_gets),
       "ratio"},
      {"apps.kv.evictions_per_op",
       d(after.kv_evictions, before.kv_evictions) / ops, "count/op"},
      {"host.traced_requests", traced_ops, "count"},
      {"host.trace_overhead_share", 1.0 - share(traced_kops, untraced_kops),
       "ratio"},
      {"slo_miss_share.heavy",
       share(static_cast<double>(heavy.Misses(spec.limit_us)),
             static_cast<double>(heavy.lat_us.size())),
       "ratio"},
      {"fail_share",
       share(static_cast<double>(bench.failed()),
             static_cast<double>(bench.attempted())),
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  if (!spec.out_dir.empty()) {
    const std::string path = spec.out_dir + "/spans-" + spec.workload + "-" +
                             std::to_string(spec.seed) + ".csv";
    if (!bench.tracer().WriteCsv(path)) {
      Die("could not write " + path);
    }
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  PrintResult(bench, m);
  return bench.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace eleos::servebench

int main(int argc, char** argv) {
  using namespace eleos::servebench;
  const Args args(argc, argv);
  const Spec spec = Spec::From(args);
  Bench bench(spec);
  return spec.trace ? RunTraced(bench, spec) : RunEndToEnd(bench, spec);
}
