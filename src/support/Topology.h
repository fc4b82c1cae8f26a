//===- Topology.h - Processor topology detection ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NUMA topology detection and the striping primitives built on it.
/// The monitoring hot paths (instance counters, event ring, latency
/// histograms, registry shards) are all write-heavy and read-rarely;
/// striping them per NUMA node keeps the cache lines they hammer local
/// to the writing socket and turns cross-node contention into a
/// merge-at-snapshot cost on the cold read path (DESIGN.md §10). The
/// concurrent tier's per-instance profiles and contention sketches
/// stripe per cpu instead (currentCpuStripe), because their writers
/// contend on one line even within a node (DESIGN.md §11).
///
/// Detection reads `/sys/devices/system/node/node*/cpulist` and degrades
/// to a single node when sysfs is absent (non-Linux, containers with a
/// masked /sys). `CSWITCH_NUMA_NODES` overrides the node count for
/// testing the striped structures on single-node hardware; under the
/// override threads are spread over the synthetic nodes round-robin in
/// creation order, so a test's worker threads deterministically land on
/// distinct stripes.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_TOPOLOGY_H
#define CSWITCH_SUPPORT_TOPOLOGY_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cswitch {

/// Size every contended counter is padded to. 64 bytes covers x86 and
/// most AArch64 parts; the adjacent-line prefetcher argues for 128, but
/// doubling the footprint of every striped counter is not worth it for
/// structures that already separate writers by node.
inline constexpr size_t CacheLineBytes = 64;

/// Immutable view of the machine's NUMA layout: how many nodes there
/// are and which node each cpu belongs to. Value type; detection is a
/// pure function of a sysfs directory so tests can point it at a fake
/// root.
class Topology {
public:
  /// Detects the topology from \p SysfsNodeDir (layout of
  /// /sys/devices/system/node: one `node<id>` subdirectory per node,
  /// each with a `cpulist` file like "0-3,8-11"). Sparse node ids are
  /// renumbered densely in ascending order. Returns a single-node
  /// topology when the directory is missing or unparsable.
  ///
  /// \p OverrideNodes, when nonzero, wins over detection: the topology
  /// becomes \p OverrideNodes synthetic nodes (capped at 64) with
  /// threads assigned round-robin — see currentNode().
  static Topology detect(const std::string &SysfsNodeDir,
                         unsigned OverrideNodes = 0);

  /// The process-wide topology: detected once from the live sysfs, with
  /// the `CSWITCH_NUMA_NODES` environment variable (read once, at first
  /// use) as the override.
  static const Topology &system();

  /// Single-node fallback (also what detect() returns on failure).
  Topology() = default;

  /// Number of NUMA nodes (>= 1).
  unsigned nodeCount() const { return Nodes; }

  /// Number of cpus the detection saw (>= 1; hardware_concurrency
  /// fallback when sysfs was absent).
  unsigned cpuCount() const { return Cpus; }

  /// True when the node count came from an override rather than sysfs.
  bool synthetic() const { return Synthetic; }

  /// Node of \p Cpu (0 when unknown; `Cpu % nodeCount()` under a
  /// synthetic override so every node is reachable).
  unsigned nodeOfCpu(unsigned Cpu) const;

  /// Cpus belonging to \p Node (empty for out-of-range nodes, and for
  /// synthetic topologies, which have no real cpu map).
  std::vector<unsigned> cpusOfNode(unsigned Node) const;

  /// Node index of the calling thread, always in [0, nodeCount()).
  ///
  /// Real topologies map the current cpu (sched_getcpu, cached in a
  /// thread-local and refreshed every ~1024 calls — a migrated thread
  /// briefly records onto its old node's stripe, which costs a few
  /// remote writes but is never incorrect). Synthetic topologies assign
  /// each thread a node round-robin in first-use order, which is what
  /// makes single-machine tests of the striped structures
  /// deterministic.
  unsigned currentNode() const;

private:
  unsigned Nodes = 1;
  unsigned Cpus = 1;
  bool Synthetic = false;
  std::vector<int> CpuToNode; ///< Indexed by cpu id; -1 for gaps.
};

/// Stripe index of the calling thread for a structure with
/// \p NumStripes stripes: the current node, folded down when the
/// structure has fewer stripes than the machine has nodes.
inline unsigned currentStripe(unsigned NumStripes) {
  if (NumStripes <= 1)
    return 0;
  return Topology::system().currentNode() % NumStripes;
}

namespace detail {

/// The calling thread's last sched_getcpu() and the calls left until
/// the next one. Constant-initialized, so reading it is a plain
/// thread-local access with no init guard.
struct CpuSample {
  unsigned Cpu = 0;
  unsigned Countdown = 0;
};
inline thread_local CpuSample ThreadCpu;

/// Re-samples the current cpu into ThreadCpu and returns it (0 where
/// the platform cannot tell).
unsigned refreshCurrentCpu();

} // namespace detail

/// The calling thread's cpu, sampled once per 1024 calls. A migrated
/// thread keeps its old cpu for at most one window, which only costs
/// locality, never correctness.
inline unsigned cachedCurrentCpu() {
  detail::CpuSample &Sample = detail::ThreadCpu;
  if (Sample.Countdown == 0)
    return detail::refreshCurrentCpu();
  --Sample.Countdown;
  return Sample.Cpu;
}

/// Stripe count of a per-cpu striped structure: \p Requested, or the
/// system's cpu count when it is 0, rounded up to a power of two and
/// capped at 64. Synthetic node counts (CSWITCH_NUMA_NODES) do not
/// change it.
unsigned resolveCpuStripes(unsigned Requested);

/// Stripe index of the calling thread for a per-cpu striped structure
/// with \p NumStripes (a power of two) stripes: the cached current cpu,
/// masked. A thread-local read on the hot path; threads on distinct
/// cpus write distinct stripes whenever there are at least as many
/// stripes as cpus.
inline unsigned currentCpuStripe(unsigned NumStripes) {
  if (NumStripes <= 1)
    return 0;
  return cachedCurrentCpu() & (NumStripes - 1);
}

/// A small fixed set of per-node-striped uint64 counters. add() is a
/// relaxed fetch_add on the caller's node's stripe — no cross-node
/// cache-line traffic on the hot path; sum() merges the stripes at read
/// time (monotonic per stripe, so a racing sum() is a valid snapshot of
/// some interleaving, like any single relaxed counter).
///
/// Each stripe is one cache line, so the \p NumCounters counters of a
/// stripe share a line on purpose: they are only ever written by
/// threads of one node, and splitting them would quadruple the
/// footprint for no contention win.
template <size_t NumCounters> class StripedCounters {
  static_assert(NumCounters >= 1 &&
                    NumCounters * sizeof(uint64_t) <= CacheLineBytes,
                "one stripe must fit a cache line");

public:
  /// \p Stripes = 0 means one stripe per NUMA node.
  explicit StripedCounters(unsigned Stripes = 0)
      : NumStripes(Stripes ? Stripes : Topology::system().nodeCount()),
        Lanes(std::make_unique<Stripe[]>(NumStripes)) {}

  /// Adds \p Delta to counter \p Which on the calling thread's stripe.
  void add(size_t Which, uint64_t Delta = 1) {
    Lanes[currentStripe(NumStripes)].Counters[Which].fetch_add(
        Delta, std::memory_order_relaxed);
  }

  /// Test hook: adds on an explicit stripe.
  void addOnStripe(unsigned Stripe, size_t Which, uint64_t Delta = 1) {
    Lanes[Stripe % NumStripes].Counters[Which].fetch_add(
        Delta, std::memory_order_relaxed);
  }

  /// Merged value of counter \p Which over every stripe.
  uint64_t sum(size_t Which) const {
    uint64_t Total = 0;
    for (unsigned S = 0; S != NumStripes; ++S)
      Total += Lanes[S].Counters[Which].load(std::memory_order_relaxed);
    return Total;
  }

  unsigned stripes() const { return NumStripes; }

  /// Heap bytes owned by the stripe array (for footprint accounting).
  size_t memoryBytes() const { return NumStripes * sizeof(Stripe); }

private:
  struct alignas(CacheLineBytes) Stripe {
    std::atomic<uint64_t> Counters[NumCounters] = {};
  };

  unsigned NumStripes;
  std::unique_ptr<Stripe[]> Lanes;
};

} // namespace cswitch

#endif // CSWITCH_SUPPORT_TOPOLOGY_H
