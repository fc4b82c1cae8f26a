//===- Topology.cpp - Processor topology detection ------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Topology.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

using namespace cswitch;

namespace {

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids. Returns an
/// empty vector on any malformed token — callers treat that as a
/// detection failure for the node.
std::vector<unsigned> parseCpuList(const std::string &Text) {
  std::vector<unsigned> Cpus;
  std::stringstream Stream(Text);
  std::string Token;
  while (std::getline(Stream, Token, ',')) {
    // Trim whitespace (the sysfs file ends in a newline).
    while (!Token.empty() && std::isspace(static_cast<unsigned char>(
                                 Token.back())))
      Token.pop_back();
    while (!Token.empty() && std::isspace(static_cast<unsigned char>(
                                 Token.front())))
      Token.erase(Token.begin());
    if (Token.empty())
      continue;
    size_t Dash = Token.find('-');
    try {
      if (Dash == std::string::npos) {
        Cpus.push_back(static_cast<unsigned>(std::stoul(Token)));
      } else {
        unsigned Lo =
            static_cast<unsigned>(std::stoul(Token.substr(0, Dash)));
        unsigned Hi =
            static_cast<unsigned>(std::stoul(Token.substr(Dash + 1)));
        if (Hi < Lo || Hi - Lo > 4096)
          return {};
        for (unsigned Cpu = Lo; Cpu <= Hi; ++Cpu)
          Cpus.push_back(Cpu);
      }
    } catch (...) {
      return {};
    }
  }
  return Cpus;
}

/// Process-wide ordinal assigned to each thread on first use; the
/// synthetic-topology round-robin is `ordinal % nodes`.
unsigned threadOrdinal() {
  static std::atomic<unsigned> NextOrdinal{0};
  thread_local unsigned Ordinal =
      NextOrdinal.fetch_add(1, std::memory_order_relaxed);
  return Ordinal;
}

} // namespace

unsigned cswitch::detail::refreshCurrentCpu() {
  CpuSample &Sample = ThreadCpu;
  Sample.Countdown = 1023;
#if defined(__linux__)
  int Cpu = sched_getcpu();
  Sample.Cpu = Cpu < 0 ? 0 : static_cast<unsigned>(Cpu);
#endif
  return Sample.Cpu;
}

unsigned cswitch::resolveCpuStripes(unsigned Requested) {
  unsigned Want = Requested ? Requested : Topology::system().cpuCount();
  return std::bit_ceil(std::clamp(Want, 1u, 64u));
}

Topology Topology::detect(const std::string &SysfsNodeDir,
                          unsigned OverrideNodes) {
  Topology T;
  unsigned HwCpus = std::max(1u, std::thread::hardware_concurrency());
  if (OverrideNodes != 0) {
    T.Nodes = std::min(OverrideNodes, 64u);
    T.Cpus = HwCpus;
    T.Synthetic = true;
    return T;
  }

  // Enumerate node<id> directories; node ids may be sparse, so collect
  // and renumber densely in ascending id order.
  std::vector<std::pair<unsigned, std::vector<unsigned>>> Found;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SysfsNodeDir, Ec)) {
    if (Ec)
      break;
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("node", 0) != 0)
      continue;
    std::string IdText = Name.substr(4);
    if (IdText.empty() ||
        IdText.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream CpuList(Entry.path() / "cpulist");
    if (!CpuList)
      continue;
    std::string Text((std::istreambuf_iterator<char>(CpuList)),
                     std::istreambuf_iterator<char>());
    std::vector<unsigned> Cpus = parseCpuList(Text);
    if (Cpus.empty())
      continue; // memory-only node (or unparsable): no threads run there
    Found.emplace_back(static_cast<unsigned>(std::stoul(IdText)),
                       std::move(Cpus));
  }
  if (Found.empty()) {
    T.Cpus = HwCpus;
    return T; // no sysfs (non-Linux, masked /sys): single node
  }
  std::sort(Found.begin(), Found.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  unsigned MaxCpu = 0;
  for (const auto &[Id, Cpus] : Found)
    for (unsigned Cpu : Cpus)
      MaxCpu = std::max(MaxCpu, Cpu);
  T.CpuToNode.assign(MaxCpu + 1, -1);
  for (unsigned Dense = 0; Dense != Found.size(); ++Dense)
    for (unsigned Cpu : Found[Dense].second)
      T.CpuToNode[Cpu] = static_cast<int>(Dense);
  T.Nodes = static_cast<unsigned>(Found.size());
  T.Cpus = static_cast<unsigned>(std::count_if(
      T.CpuToNode.begin(), T.CpuToNode.end(), [](int N) { return N >= 0; }));
  return T;
}

const Topology &Topology::system() {
  static const Topology Instance = [] {
    unsigned Override = 0;
    if (const char *Env = std::getenv("CSWITCH_NUMA_NODES")) {
      char *End = nullptr;
      unsigned long Value = std::strtoul(Env, &End, 10);
      if (End && *End == '\0' && Value > 0 && Value <= 64)
        Override = static_cast<unsigned>(Value);
    }
    return detect("/sys/devices/system/node", Override);
  }();
  return Instance;
}

unsigned Topology::nodeOfCpu(unsigned Cpu) const {
  if (Nodes <= 1)
    return 0;
  if (Synthetic)
    return Cpu % Nodes;
  if (Cpu < CpuToNode.size() && CpuToNode[Cpu] >= 0)
    return static_cast<unsigned>(CpuToNode[Cpu]);
  return 0;
}

std::vector<unsigned> Topology::cpusOfNode(unsigned Node) const {
  std::vector<unsigned> Out;
  for (unsigned Cpu = 0; Cpu != CpuToNode.size(); ++Cpu)
    if (CpuToNode[Cpu] == static_cast<int>(Node))
      Out.push_back(Cpu);
  return Out;
}

unsigned Topology::currentNode() const {
  if (Nodes <= 1)
    return 0;
  if (Synthetic)
    return threadOrdinal() % Nodes;
  return nodeOfCpu(cachedCurrentCpu());
}
