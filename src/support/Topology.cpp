//===- Topology.cpp - Processor topology detection ------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Topology.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

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

Topology Topology::detect(const std::string &SysfsNodeDir) {
  Topology T;
  T.Cpus = std::max(1u, std::thread::hardware_concurrency());
  // One node<id> directory per node; ids may be sparse and nodes may
  // have no cpus (memory-only), so count only the ones that run threads.
  std::set<unsigned> Cpus;
  unsigned Nodes = 0;
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
    std::vector<unsigned> NodeCpus = parseCpuList(Text);
    if (NodeCpus.empty())
      continue; // memory-only node (or unparsable): no threads run there
    ++Nodes;
    Cpus.insert(NodeCpus.begin(), NodeCpus.end());
  }
  if (Nodes == 0)
    return T; // no sysfs (non-Linux, masked /sys): single node
  T.Nodes = Nodes;
  T.Cpus = static_cast<unsigned>(Cpus.size());
  return T;
}

const Topology &Topology::system() {
  static const Topology Instance = detect("/sys/devices/system/node");
  return Instance;
}
