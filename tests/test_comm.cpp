// Tests for the in-process message-passing substrate (MPI semantics).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/runtime.hpp"
#include "util/error.hpp"

namespace lc = licomk::comm;

TEST(Comm, PointToPointRoundTrip) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double payload[3] = {1.0, 2.0, 3.0};
      c.send(payload, sizeof(payload), 1, 7);
      double back[3] = {};
      c.recv(back, sizeof(back), 1, 8);
      EXPECT_DOUBLE_EQ(back[2], 6.0);
    } else {
      double in[3] = {};
      lc::Status st = c.recv(in, sizeof(in), 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.bytes, 3 * sizeof(double));
      for (auto& v : in) v *= 2.0;
      c.send(in, sizeof(in), 0, 8);
    }
  });
}

TEST(Comm, MessagesNonOvertakingPerSourceAndTag) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      for (int m = 0; m < 10; ++m) c.send_n(&m, 1, 1, 5);
    } else {
      for (int m = 0; m < 10; ++m) {
        int got = -1;
        c.recv_n(&got, 1, 0, 5);
        EXPECT_EQ(got, m);  // FIFO per (source, tag)
      }
    }
  });
}

TEST(Comm, TagSelectivityAllowsOutOfOrderDelivery) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      int a = 1, b = 2;
      c.send_n(&a, 1, 1, 100);
      c.send_n(&b, 1, 1, 200);
    } else {
      int got = 0;
      c.recv_n(&got, 1, 0, 200);  // later-sent message first, by tag
      EXPECT_EQ(got, 2);
      c.recv_n(&got, 1, 0, 100);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(Comm, AnySourceAndAnyTagWildcards) {
  lc::Runtime::run(3, [](lc::Communicator& c) {
    if (c.rank() != 0) {
      int v = c.rank() * 11;
      c.send_n(&v, 1, 0, c.rank());
    } else {
      int sum = 0;
      for (int m = 0; m < 2; ++m) {
        int got = 0;
        lc::Status st = c.recv(&got, sizeof(int), lc::kAnySource, lc::kAnyTag);
        EXPECT_EQ(got, st.source * 11);
        sum += got;
      }
      EXPECT_EQ(sum, 33);
    }
  });
}

TEST(Comm, TruncationThrowsCommError) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double big[8] = {};
      c.send(big, sizeof(big), 1, 1);
    } else {
      double small[2];
      EXPECT_THROW(c.recv(small, sizeof(small), 0, 1), licomk::CommError);
    }
  });
}

TEST(Comm, TruncationErrorNamesSourceRankAndTag) {
  // The error text must identify the offending peer — without it a
  // truncation deep inside a batched exchange is undebuggable.
  lc::Runtime::run(3, [](lc::Communicator& c) {
    if (c.rank() == 2) {
      double big[8] = {};
      c.send(big, sizeof(big), 0, 7);
    } else if (c.rank() == 0) {
      double small[2];
      try {
        c.recv(small, sizeof(small), 2, 7);
        FAIL() << "expected CommError";
      } catch (const licomk::CommError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
        EXPECT_NE(what.find("tag 7"), std::string::npos) << what;
      }
    }
  });
}

TEST(Comm, TruncationConsumesTheMessage) {
  // Documented contract: a truncated message is consumed, not left queued.
  // The next matching recv sees the NEXT message, not the oversized one.
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double big[8] = {};
      c.send(big, sizeof(big), 1, 5);
      double follow = 42.0;
      c.send(&follow, sizeof(follow), 1, 5);
    } else {
      double small[2];
      EXPECT_THROW(c.recv(small, sizeof(small), 0, 5), licomk::CommError);
      double got = 0.0;
      lc::Status st = c.recv(&got, sizeof(got), 0, 5);
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_DOUBLE_EQ(got, 42.0);
    }
  });
}

TEST(Comm, IrecvTruncationThrowsAtWait) {
  // The async path must detect truncation too: posting an undersized irecv
  // succeeds, but wait_all() on it throws once the oversized message lands.
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double big[8] = {};
      c.send(big, sizeof(big), 1, 9);
    } else {
      double small[2];
      std::vector<lc::Request> reqs;
      reqs.push_back(c.irecv(small, sizeof(small), 0, 9));
      try {
        c.wait_all(reqs);
        FAIL() << "expected CommError from wait_all";
      } catch (const licomk::CommError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("truncation"), std::string::npos) << what;
        EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      }
    }
  });
}

TEST(Comm, IsendIrecvWaitAll) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    int other = 1 - c.rank();
    std::vector<double> out(16, static_cast<double>(c.rank() + 1));
    std::vector<double> in(16, 0.0);
    std::vector<lc::Request> reqs;
    reqs.push_back(c.irecv(in.data(), in.size() * sizeof(double), other, 3));
    reqs.push_back(c.isend(out.data(), out.size() * sizeof(double), other, 3));
    c.wait_all(reqs);
    EXPECT_DOUBLE_EQ(in[7], static_cast<double>(other + 1));
  });
}

TEST(Comm, BarrierSynchronizesGenerations) {
  std::atomic<int> phase0{0};
  std::atomic<int> phase1{0};
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    phase0.fetch_add(1);
    c.barrier();
    EXPECT_EQ(phase0.load(), 4);  // everyone finished phase 0 first
    phase1.fetch_add(1);
    c.barrier();
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Comm, AllreduceSumMinMax) {
  lc::Runtime::run(4, [](lc::Communicator& c) {
    double v[2] = {static_cast<double>(c.rank() + 1), static_cast<double>(-c.rank())};
    c.allreduce(v, 2, lc::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v[0], 10.0);
    EXPECT_DOUBLE_EQ(v[1], -6.0);
    double mn = c.allreduce_scalar(static_cast<double>(c.rank()), lc::ReduceOp::Min);
    EXPECT_DOUBLE_EQ(mn, 0.0);
    long long mx = c.allreduce_scalar(static_cast<long long>(c.rank()), lc::ReduceOp::Max);
    EXPECT_EQ(mx, 3);
  });
}

TEST(Comm, AllreduceSingleRankIsIdentity) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    double v = 42.0;
    c.allreduce(&v, 1, lc::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v, 42.0);
  });
}

TEST(Comm, BcastFromNonzeroRoot) {
  lc::Runtime::run(3, [](lc::Communicator& c) {
    char buf[5] = {};
    if (c.rank() == 2) std::memcpy(buf, "licm", 5);
    c.bcast(buf, 5, 2);
    EXPECT_STREQ(buf, "licm");
  });
}

TEST(Comm, GathervCollectsVariableLengths) {
  lc::Runtime::run(3, [](lc::Communicator& c) {
    std::vector<int> mine(static_cast<size_t>(c.rank()) + 1, c.rank());
    auto all = c.gatherv_n(mine, 0);
    if (c.rank() == 0) {
      ASSERT_EQ(all.size(), 3u);
      for (int r = 0; r < 3; ++r) {
        ASSERT_EQ(all[static_cast<size_t>(r)].size(), static_cast<size_t>(r) + 1);
        for (int x : all[static_cast<size_t>(r)]) EXPECT_EQ(x, r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, AllgathervGivesEveryoneEverything) {
  lc::Runtime::run(4, [](lc::Communicator& c) {
    long long mine = 100 + c.rank();
    auto all = c.allgatherv(&mine, sizeof(mine));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      long long v = 0;
      std::memcpy(&v, all[static_cast<size_t>(r)].data(), sizeof(v));
      EXPECT_EQ(v, 100 + r);
    }
  });
}

TEST(Comm, WorldTrafficCountersAdvance) {
  lc::World world(2);
  auto c0 = world.communicator(0);
  double x = 1.0;
  c0.send(&x, sizeof(x), 1, 9);
  EXPECT_EQ(world.total_messages(), 1u);
  EXPECT_EQ(world.total_bytes(), sizeof(double));
}

TEST(Comm, RankExceptionPropagatesToCaller) {
  EXPECT_THROW(lc::Runtime::run(2,
                                [](lc::Communicator& c) {
                                  if (c.rank() == 1) throw licomk::Error("rank 1 exploded");
                                }),
               licomk::Error);
}

TEST(Comm, RankFailurePoisonsWorldAndUnblocksPeers) {
  // The classic MPI hang: rank 1 dies while rank 0 blocks in a recv that
  // will never be satisfied. Poisoning must wake rank 0 with CommError, and
  // the runtime must rethrow the ROOT CAUSE (rank 1's error), not the
  // CommError cascade it triggered.
  std::atomic<bool> rank0_unblocked{false};
  try {
    lc::Runtime::run(2, [&](lc::Communicator& c) {
      if (c.rank() == 0) {
        double buf = 0.0;
        try {
          c.recv(&buf, sizeof(buf), 1, 1);  // never sent
        } catch (const licomk::CommError&) {
          rank0_unblocked = true;
          throw;
        }
      } else {
        throw licomk::ResourceError("rank 1 died");
      }
    });
    FAIL() << "expected the rank failure to propagate";
  } catch (const licomk::ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 died"), std::string::npos);
  }
  EXPECT_TRUE(rank0_unblocked.load());
}

TEST(Comm, RankFailureUnblocksBarrierWaiters) {
  // Two ranks park in the barrier while the third dies before joining it.
  EXPECT_THROW(lc::Runtime::run(3,
                                [](lc::Communicator& c) {
                                  if (c.rank() == 2) throw licomk::Error("boom");
                                  c.barrier();  // would deadlock without poisoning
                                }),
               licomk::Error);
}

TEST(Comm, PoisonKeepsFirstReasonAndRejectsTraffic) {
  lc::World world(2);
  EXPECT_FALSE(world.poisoned());
  world.poison("first failure");
  world.poison("second failure");  // first call wins
  EXPECT_TRUE(world.poisoned());
  EXPECT_EQ(world.poison_reason(), "first failure");
  auto c = world.communicator(0);
  double x = 0.0;
  EXPECT_THROW(c.send(&x, sizeof(x), 1, 1), licomk::CommError);
  EXPECT_THROW(c.barrier(), licomk::CommError);
}

TEST(Comm, SelfSendIsDeliverable) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    int v = 7;
    c.send_n(&v, 1, 0, 4);
    int got = 0;
    c.recv_n(&got, 1, 0, 4);
    EXPECT_EQ(got, 7);
  });
}

TEST(Comm, NegativeUserTagRejected) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    int v = 0;
    EXPECT_THROW(c.send_n(&v, 1, 0, -5), licomk::InvalidArgument);
  });
}

// ---------------------------------------------------------------------------
// Persistent requests (send_init/recv_init + start/wait): the comm substrate
// under halo::ExchangeGroup. The lifecycle contract is armed → started →
// (wait) → armed again; misuse throws instead of deadlocking or corrupting.
// ---------------------------------------------------------------------------

TEST(Comm, PersistentRoundTripReusesRequestsAcrossRounds) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    constexpr int kRounds = 5;
    double out[4] = {};
    double in[4] = {};
    if (c.rank() == 0) {
      lc::PersistentRequest sreq = c.send_init(out, sizeof(out), 1, 11);
      EXPECT_TRUE(sreq.armed());
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < 4; ++i) out[i] = 10.0 * r + i;
        c.start(sreq);
        EXPECT_TRUE(sreq.started());
        c.wait(sreq);
        EXPECT_TRUE(sreq.armed());  // completed wait RE-ARMS, never invalidates
      }
    } else {
      lc::PersistentRequest rreq = c.recv_init(in, sizeof(in), 0, 11);
      for (int r = 0; r < kRounds; ++r) {
        c.start(rreq);
        c.wait(rreq);
        EXPECT_EQ(rreq.last_status().bytes, sizeof(in));
        EXPECT_EQ(rreq.last_status().source, 0);
        for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(in[i], 10.0 * r + i);
      }
    }
  });
}

TEST(Comm, PersistentDoubleStartThrows) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    double x = 3.5;
    if (c.rank() == 0) {
      lc::PersistentRequest sreq = c.send_init(&x, sizeof(x), 1, 12);
      c.start(sreq);
      EXPECT_THROW(c.start(sreq), licomk::CommError);  // missing wait
      c.wait(sreq);
      c.start(sreq);  // legal again after the re-arm
      c.wait(sreq);
    } else {
      double got = 0.0;
      lc::PersistentRequest rreq = c.recv_init(&got, sizeof(got), 0, 12);
      for (int r = 0; r < 2; ++r) {
        c.start(rreq);
        c.wait(rreq);
        EXPECT_DOUBLE_EQ(got, 3.5);
      }
    }
  });
}

TEST(Comm, PersistentWaitBeforeStartThrows) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    double x = 0.0;
    lc::PersistentRequest req = c.recv_init(&x, sizeof(x), 0, 13);
    EXPECT_THROW(c.wait(req), licomk::CommError);  // never started
  });
}

TEST(Comm, PersistentNullRequestOpsThrow) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    lc::PersistentRequest req;  // default: Null kind
    EXPECT_FALSE(req.valid());
    EXPECT_THROW(c.start(req), licomk::CommError);
    EXPECT_THROW(c.wait(req), licomk::CommError);
  });
}

TEST(Comm, PersistentSendBufferReusableAfterStart) {
  // Buffered-send semantics: start() copies the payload out, so the bound
  // buffer may be overwritten immediately — the receiver still sees the
  // values present at start() time. This is what lets ExchangeGroup run
  // its pack buffers as a deferred ring without waiting on the consumer.
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double out = 1.0;
      lc::PersistentRequest sreq = c.send_init(&out, sizeof(out), 1, 14);
      c.start(sreq);
      out = -999.0;  // scribble after start, before the receiver posts
      c.wait(sreq);
      c.start(sreq);  // second round carries the new value
      c.wait(sreq);
    } else {
      double got = 0.0;
      lc::PersistentRequest rreq = c.recv_init(&got, sizeof(got), 0, 14);
      c.start(rreq);
      c.wait(rreq);
      EXPECT_DOUBLE_EQ(got, 1.0);
      c.start(rreq);
      c.wait(rreq);
      EXPECT_DOUBLE_EQ(got, -999.0);
    }
  });
}

TEST(Comm, PersistentStartAllWaitAllSkipInvalidAndUnstarted) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double a = 1.0, b = 2.0;
      std::vector<lc::PersistentRequest> reqs(3);  // [2] stays Null
      reqs[0] = c.send_init(&a, sizeof(a), 1, 15);
      reqs[1] = c.send_init(&b, sizeof(b), 1, 16);
      c.start_all(std::span<lc::PersistentRequest>(reqs));
      c.wait_all(std::span<lc::PersistentRequest>(reqs));
      EXPECT_TRUE(reqs[0].armed());
      EXPECT_TRUE(reqs[1].armed());
      EXPECT_FALSE(reqs[2].valid());
    } else {
      double a = 0.0, b = 0.0;
      std::vector<lc::PersistentRequest> reqs(2);
      reqs[0] = c.recv_init(&a, sizeof(a), 0, 15);
      reqs[1] = c.recv_init(&b, sizeof(b), 0, 16);
      c.start_all(std::span<lc::PersistentRequest>(reqs));
      c.wait_all(std::span<lc::PersistentRequest>(reqs));
      EXPECT_DOUBLE_EQ(a, 1.0);
      EXPECT_DOUBLE_EQ(b, 2.0);
    }
  });
}

TEST(Comm, PersistentRecvTruncationThrows) {
  lc::Runtime::run(2, [](lc::Communicator& c) {
    if (c.rank() == 0) {
      double big[4] = {1, 2, 3, 4};
      c.send(big, sizeof(big), 1, 17);
    } else {
      double small[2] = {};
      lc::PersistentRequest rreq = c.recv_init(small, sizeof(small), 0, 17);
      c.start(rreq);
      EXPECT_THROW(c.wait(rreq), licomk::CommError);
    }
  });
}

TEST(Comm, PersistentInitValidatesArguments) {
  lc::Runtime::run(1, [](lc::Communicator& c) {
    double x = 0.0;
    EXPECT_THROW(c.send_init(&x, sizeof(x), 0, -1), licomk::Error);   // negative tag
    EXPECT_THROW(c.recv_init(nullptr, sizeof(x), 0, 1), licomk::Error);  // null buffer
  });
}
