//===- TopologyTest.cpp - NUMA topology detection -------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Topology::detect is a pure function of a sysfs-shaped directory, so
// these tests build fake /sys/devices/system/node roots in a temp dir
// and exercise every parsing and fallback path without caring what
// machine they run on.
//
//===----------------------------------------------------------------------===//

#include "support/Topology.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <string>

using namespace cswitch;

namespace {

/// A scratch directory shaped like /sys/devices/system/node, removed on
/// destruction.
class FakeSysfs {
public:
  FakeSysfs() {
    Root = std::filesystem::temp_directory_path() /
           ("cswitch-topo-test-" +
            std::to_string(
                reinterpret_cast<uintptr_t>(static_cast<void *>(this))));
    std::filesystem::create_directories(Root);
  }
  ~FakeSysfs() {
    std::error_code Ec;
    std::filesystem::remove_all(Root, Ec);
  }

  /// Creates node<Id>/cpulist containing \p CpuList.
  void addNode(unsigned Id, const std::string &CpuList) {
    std::filesystem::path Dir = Root / ("node" + std::to_string(Id));
    std::filesystem::create_directories(Dir);
    std::ofstream Out(Dir / "cpulist");
    Out << CpuList << "\n";
  }

  /// Creates node<Id> with no cpulist file (a memory-only node).
  void addMemoryOnlyNode(unsigned Id) {
    std::filesystem::create_directories(Root /
                                        ("node" + std::to_string(Id)));
  }

  std::string path() const { return Root.string(); }

private:
  std::filesystem::path Root;
};

TEST(Topology, MissingDirectoryFallsBackToSingleNode) {
  Topology T = Topology::detect("/nonexistent/cswitch-no-such-dir");
  EXPECT_EQ(T.nodeCount(), 1u);
  EXPECT_GE(T.cpuCount(), 1u);
}

TEST(Topology, DetectsTwoNodesFromRangeCpuLists) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "0-3");
  Sysfs.addNode(1, "4-7");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 2u);
  EXPECT_EQ(T.cpuCount(), 8u);
}

TEST(Topology, ParsesMixedListsAndSingletons) {
  FakeSysfs Sysfs;
  // Interleaved SMT-sibling style lists with singletons and ranges.
  Sysfs.addNode(0, "0-1,4,6-7");
  Sysfs.addNode(1, "2-3,5");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 2u);
  EXPECT_EQ(T.cpuCount(), 8u);
}

TEST(Topology, SparseNodeIdsAreRenumberedDensely) {
  FakeSysfs Sysfs;
  // Real machines expose e.g. node0/node2 with node1 unpopulated; each
  // populated node counts once, whatever its id.
  Sysfs.addNode(0, "0-1");
  Sysfs.addNode(2, "2-3");
  Sysfs.addNode(8, "4-5");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 3u);
  EXPECT_EQ(T.cpuCount(), 6u);
}

TEST(Topology, MemoryOnlyNodesAreSkipped) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "0-3");
  Sysfs.addMemoryOnlyNode(1); // CXL-style memory node: no cpulist
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 1u);
  EXPECT_EQ(T.cpuCount(), 4u);
}

TEST(Topology, MalformedCpuListFallsBackToSingleNode) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "banana");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 1u);
}

TEST(Topology, SystemTopologyIsSane) {
  const Topology &T = Topology::system();
  EXPECT_GE(T.nodeCount(), 1u);
  EXPECT_GE(T.cpuCount(), 1u);
}

TEST(Topology, HostFingerprintIsStableAndNonEmpty) {
  std::string A = hostFingerprint();
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, hostFingerprint());
  EXPECT_NE(A.find('/'), std::string::npos);
}

} // namespace
