//===- SeqlockRingTest.cpp - Seqlock slot ring tests ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The slot protocol under the event log and the decision ledger, tested
// on its own: read classification at the exact ticket boundaries
// (unwritten, claimed but unpublished, lapped, last published), and
// several writers wrapping a tiny ring of a multi-word payload while
// readers validate every accepted payload.
//
//===----------------------------------------------------------------------===//

#include "support/SeqlockRing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

/// Five words, every one set to the ticket: a torn read mixes tickets.
struct Tagged {
  uint64_t Words[5];
};

Tagged tagged(uint64_t Ticket) {
  Tagged Out;
  for (uint64_t &Word : Out.Words)
    Word = Ticket;
  return Out;
}

bool isTagged(const Tagged &Value, uint64_t Ticket) {
  for (uint64_t Word : Value.Words)
    if (Word != Ticket)
      return false;
  return true;
}

TEST(SeqlockRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SeqlockRing<Tagged>(0).capacity(), 1u);
  EXPECT_EQ(SeqlockRing<Tagged>(3).capacity(), 4u);
  EXPECT_EQ(SeqlockRing<Tagged>(8).capacity(), 8u);
  EXPECT_EQ(SeqlockRing<Tagged>::NumWords, 5u);
  EXPECT_EQ(SeqlockRing<Tagged>::SlotBytes, 48u);
}

TEST(SeqlockRing, ClassifiesReadsAtTicketBoundaries) {
  SeqlockRing<Tagged> Ring(4);
  Tagged Out = tagged(99);
  // Unwritten: a fresh ring has nothing published.
  EXPECT_EQ(Ring.read(0, Out), SlotRead::Pending);
  EXPECT_TRUE(isTagged(Out, 99)); // Out is written only on Ok.

  for (uint64_t I = 0; I != 6; ++I) {
    uint64_t Ticket = Ring.claim();
    ASSERT_EQ(Ticket, I);
    Ring.publish(Ticket, tagged(Ticket));
  }
  EXPECT_EQ(Ring.next(), 6u);
  // Lapped: tickets 0 and 1 were overwritten by 4 and 5.
  EXPECT_EQ(Ring.read(0, Out), SlotRead::Lost);
  EXPECT_EQ(Ring.read(1, Out), SlotRead::Lost);
  // The oldest retained through the last published ticket read back.
  for (uint64_t Ticket = 2; Ticket != 6; ++Ticket) {
    ASSERT_EQ(Ring.read(Ticket, Out), SlotRead::Ok) << Ticket;
    EXPECT_TRUE(isTagged(Out, Ticket)) << Ticket;
  }
  // Unwritten: one past the last published ticket (its slot still holds
  // ticket 2), and far beyond it.
  EXPECT_EQ(Ring.read(6, Out), SlotRead::Pending);
  EXPECT_EQ(Ring.read(1000, Out), SlotRead::Pending);

  // Claimed but unpublished: still Pending, and the ticket it will
  // replace stays readable until the write begins.
  uint64_t Claimed = Ring.claim();
  EXPECT_EQ(Claimed, 6u);
  EXPECT_EQ(Ring.read(6, Out), SlotRead::Pending);
  EXPECT_EQ(Ring.read(2, Out), SlotRead::Ok);
  Ring.publish(Claimed, tagged(Claimed));
  EXPECT_EQ(Ring.read(6, Out), SlotRead::Ok);
  EXPECT_TRUE(isTagged(Out, 6));
  EXPECT_EQ(Ring.read(2, Out), SlotRead::Lost);
}

TEST(SeqlockRing, LappedWriterLeavesTheNewerPayloadStanding) {
  // A writer that publishes after a later ticket already took its slot
  // (it was descheduled between claim and publish) must not clobber the
  // newer payload: its own ticket reads Lost, the newer one stays Ok.
  SeqlockRing<Tagged> Ring(4);
  uint64_t Slow = Ring.claim(); // ticket 0
  for (int I = 0; I != 4; ++I) {
    uint64_t Ticket = Ring.claim();
    Ring.publish(Ticket, tagged(Ticket));
  }
  Ring.publish(Slow, tagged(Slow));
  Tagged Out;
  EXPECT_EQ(Ring.read(Slow, Out), SlotRead::Lost);
  ASSERT_EQ(Ring.read(4, Out), SlotRead::Ok);
  EXPECT_TRUE(isTagged(Out, 4));
}

TEST(SeqlockRing, WrappingWritersNeverPublishTornPayloads) {
  // Four writers lap a four-slot ring thousands of times while two
  // readers chase the head. Every payload a reader accepts must carry
  // its own ticket in every word; a writer lapped mid-publication must
  // never leave a mixed payload behind under a valid version. The
  // writers keep lapping until a read has landed, so the check has
  // samples even when the readers get a cpu only after the writers'
  // first PerWriter publications.
  SeqlockRing<Tagged> Ring(4);
  constexpr int Writers = 4;
  constexpr uint64_t PerWriter = 20000;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Written{0};

  auto Reader = [&] {
    Tagged Out;
    while (!Stop.load(std::memory_order_relaxed)) {
      uint64_t Hi = Ring.next();
      uint64_t Lo = Hi > 6 ? Hi - 6 : 0;
      for (uint64_t Ticket = Lo; Ticket != Hi + 2; ++Ticket) {
        if (Ring.read(Ticket, Out) != SlotRead::Ok)
          continue;
        Accepted.fetch_add(1, std::memory_order_relaxed);
        if (!isTagged(Out, Ticket))
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> Threads;
  for (int R = 0; R != 2; ++R)
    Threads.emplace_back(Reader);
  std::vector<std::thread> WriterThreads;
  for (int W = 0; W != Writers; ++W)
    WriterThreads.emplace_back([&] {
      uint64_t I = 0;
      for (; I < PerWriter || Accepted.load(std::memory_order_relaxed) == 0;
           ++I) {
        uint64_t Ticket = Ring.claim();
        Ring.publish(Ticket, tagged(Ticket));
      }
      Written.fetch_add(I, std::memory_order_relaxed);
    });
  for (std::thread &T : WriterThreads)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_GT(Accepted.load(), 0u);

  // Quiescent: every slot holds exactly one whole payload, readable
  // under its own ticket, and no ticket past the last claim reads Ok.
  uint64_t Total = Ring.next();
  ASSERT_EQ(Total, Written.load());
  ASSERT_GE(Total, Writers * PerWriter);
  Tagged Out;
  size_t Readable = 0;
  for (uint64_t Ticket = 0; Ticket != Total; ++Ticket) {
    if (Ring.read(Ticket, Out) != SlotRead::Ok)
      continue;
    ++Readable;
    EXPECT_TRUE(isTagged(Out, Ticket)) << Ticket;
  }
  EXPECT_EQ(Readable, Ring.capacity());
  EXPECT_EQ(Ring.read(Total, Out), SlotRead::Pending);
}

} // namespace
