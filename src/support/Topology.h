//===- Topology.h - Processor topology detection ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Processor topology detection and the per-cpu striping primitives
/// built on it. The host record (node and cpu counts) is detected once
/// and reported in telemetry and in every benchmark file. The concurrent
/// tier's per-instance profiles and contention sketches, the striped
/// maps and the spare rings stripe per cpu (currentCpuStripe), because
/// their writers contend on one line even within a node (DESIGN.md §11).
/// Nothing is striped per NUMA node: no multi-node host was ever
/// measured (DESIGN.md §10).
///
/// Detection reads `/sys/devices/system/node/node*/cpulist` and degrades
/// to a single node when sysfs is absent (non-Linux, containers with a
/// masked /sys).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_TOPOLOGY_H
#define CSWITCH_SUPPORT_TOPOLOGY_H

#include <cstddef>
#include <string>

namespace cswitch {

/// Size every contended counter is padded to. 64 bytes covers x86 and
/// most AArch64 parts; the adjacent-line prefetcher argues for 128, but
/// doubling the footprint of every padded counter and stripe was never
/// measured to pay.
inline constexpr size_t CacheLineBytes = 64;

/// Immutable record of the machine's NUMA layout: how many nodes and
/// cpus it has. Value type; detection is a pure function of a sysfs
/// directory so tests can point it at a fake root.
class Topology {
public:
  /// Detects the topology from \p SysfsNodeDir (layout of
  /// /sys/devices/system/node: one `node<id>` subdirectory per node,
  /// each with a `cpulist` file like "0-3,8-11"). Nodes without cpus
  /// (memory-only) are not counted. Returns a single-node topology when
  /// the directory is missing or unparsable.
  static Topology detect(const std::string &SysfsNodeDir);

  /// The process-wide topology, detected once from the live sysfs.
  static const Topology &system();

  /// Single-node fallback (also what detect() returns on failure).
  Topology() = default;

  /// Number of NUMA nodes with cpus (>= 1).
  unsigned nodeCount() const { return Nodes; }

  /// Number of cpus the detection saw (>= 1; hardware_concurrency
  /// fallback when sysfs was absent).
  unsigned cpuCount() const { return Cpus; }

private:
  unsigned Nodes = 1;
  unsigned Cpus = 1;
};

/// Identity of this host for the provenance of fitted models: node
/// name, machine architecture and hardware concurrency
/// ("node/x86_64/c32"). Stable across runs on one machine; distinct
/// machines (or core-count changes) produce distinct fingerprints.
std::string hostFingerprint();

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
/// capped at 64.
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

} // namespace cswitch

#endif // CSWITCH_SUPPORT_TOPOLOGY_H
