// End-to-end protocol tests: DO → SP → User for equality, range, and join
// query authentication over the AP²G-tree, including soundness (tamper
// rejection), completeness, and the zero-knowledge indistinguishability of
// inaccessible vs. non-existent records.
#include <gtest/gtest.h>

#include "core/kd_tree.h"
#include "core/parallel_verify.h"
#include "core/system.h"
#include "verify_assert.h"

namespace apqa::core {
namespace {

Record Rec(std::uint32_t key, const std::string& value, const char* pol) {
  return Record{Point{key}, value, Policy::Parse(pol)};
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Domain domain{/*dims=*/1, /*bits=*/4};  // keys 0..15
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB", "RoleC"},
                                         domain, 4242);
    records_ = {
        Rec(1, "v1", "RoleA"),
        Rec(3, "v3", "RoleA & RoleB"),
        Rec(4, "v4", "RoleC"),
        Rec(7, "v7", "(RoleA & RoleB) | RoleC"),
        Rec(9, "v9", "RoleB"),
        Rec(12, "v12", "RoleC & RoleB"),
    };
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(records_));
    user_ab_ = std::make_unique<User>(owner_->keys(),
                                      owner_->EnrollUser({"RoleA", "RoleB"}));
    user_c_ = std::make_unique<User>(owner_->keys(),
                                     owner_->EnrollUser({"RoleC"}));
  }

  std::unique_ptr<DataOwner> owner_;
  std::vector<Record> records_;
  std::unique_ptr<ServiceProvider> sp_;
  std::unique_ptr<User> user_ab_, user_c_;
};

TEST_F(SystemTest, EqualityAccessible) {
  Vo vo = sp_->EqualityQuery(Point{1}, user_ab_->roles());
  Record result;
  bool accessible = false;
  ASSERT_TRUE(
      Verified(user_ab_->VerifyEquality(Point{1}, vo, &result, &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(result.value, "v1");
}

TEST_F(SystemTest, EqualityInaccessibleAndAbsentLookAlike) {
  // Key 4 exists but needs RoleC; key 5 does not exist. For user {A,B} both
  // must verify as "inaccessible" with the same entry shape.
  for (std::uint32_t key : {4u, 5u}) {
    Vo vo = sp_->EqualityQuery(Point{key}, user_ab_->roles());
    ASSERT_EQ(vo.entries.size(), 1u);
    EXPECT_TRUE(
        std::holds_alternative<InaccessibleRecordEntry>(vo.entries[0]));
    bool accessible = true;
    ASSERT_TRUE(Verified(
        user_ab_->VerifyEquality(Point{key}, vo, nullptr, &accessible)))
        << "key " << key;
    EXPECT_FALSE(accessible);
  }
}

TEST_F(SystemTest, EqualityVoDoesNotMatchOtherKey) {
  Vo vo = sp_->EqualityQuery(Point{1}, user_ab_->roles());
  bool accessible;
  EXPECT_TRUE(
      Rejected(user_ab_->VerifyEquality(Point{2}, vo, nullptr, &accessible),
               VerifyCode::kKeyMismatch, 0));
}

TEST_F(SystemTest, RangeQueryReturnsAccessibleRecords) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(Verified(user_ab_->VerifyRange(range, vo, &results)));
  // user {A,B} can access: 1 (A), 3 (A&B), 7 ((A&B)|C), 9 (B) — not 4 (C).
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1, 3, 7, 9}));
}

TEST_F(SystemTest, RangeQueryOtherUser) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_c_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(Verified(user_c_->VerifyRange(range, vo, &results)));
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{4, 7}));
}

TEST_F(SystemTest, RangeAggregatesInaccessibleSubtrees) {
  // Full-domain query: inaccessible regions should be summarized by
  // internal-node APS entries, so the VO has fewer entries than cells.
  Box range{Point{0}, Point{15}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  EXPECT_LT(vo.entries.size(), 16u);
  ASSERT_TRUE(Verified(user_ab_->VerifyRange(range, vo, nullptr)));
  bool has_box_entry = false;
  for (const auto& e : vo.entries) {
    has_box_entry |= std::holds_alternative<InaccessibleBoxEntry>(e);
  }
  EXPECT_TRUE(has_box_entry);
}

TEST_F(SystemTest, RangeRejectsDroppedEntry) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad = vo;
  bad.entries.pop_back();  // incomplete coverage
  EXPECT_TRUE(Rejected(user_ab_->VerifyRange(range, bad, nullptr),
                       VerifyCode::kCoverageGap));
}

TEST_F(SystemTest, RangeRejectsDroppedResult) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e);
        res != nullptr && res->key == Point{3}) {
      continue;  // SP tries to hide record 3
    }
    bad.entries.push_back(e);
  }
  EXPECT_TRUE(Rejected(user_ab_->VerifyRange(range, bad, nullptr),
                       VerifyCode::kCoverageGap));
}

TEST_F(SystemTest, RangeRejectsTamperedValue) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad = vo;
  std::ptrdiff_t forged = -1;
  for (std::size_t i = 0; i < bad.entries.size(); ++i) {
    if (auto* res = std::get_if<ResultEntry>(&bad.entries[i])) {
      res->value = "forged";
      forged = static_cast<std::ptrdiff_t>(i);
      break;
    }
  }
  ASSERT_GE(forged, 0);
  EXPECT_TRUE(Rejected(user_ab_->VerifyRange(range, bad, nullptr),
                       VerifyCode::kBadSignature, forged));
}

TEST_F(SystemTest, RangeRejectsResultPresentedAsInaccessible) {
  // The SP derives an APS signature for an accessible record and presents
  // the record as inaccessible — unforgeability must prevent this, since
  // Relax fails when the user's roles satisfy the policy.
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  // Swap a result entry for a record-APS entry faked from another user's
  // view: query as RoleC user and splice their entry for key 3 (which is
  // inaccessible to them but accessible to {A,B}).
  Vo vo_c = sp_->RangeQuery(range, user_c_->roles());
  Vo bad;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e);
        res != nullptr && res->key == Point{3}) {
      for (const auto& ec : vo_c.entries) {
        if (EntryRegion(ec).Contains(Point{3}) &&
            std::holds_alternative<InaccessibleRecordEntry>(ec)) {
          bad.entries.push_back(ec);
        }
      }
      continue;
    }
    bad.entries.push_back(e);
  }
  // Either coverage breaks (RoleC view aggregated differently) or the APS
  // signature fails under user_ab's super policy. It must not verify; on
  // this database the splice leaves a coverage gap.
  EXPECT_TRUE(Rejected(user_ab_->VerifyRange(range, bad, nullptr),
                       VerifyCode::kCoverageGap));
}

TEST_F(SystemTest, BasicRangeMatchesTreeRange) {
  Box range{Point{2}, Point{8}};
  Vo tree_vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo basic_vo = sp_->BasicRangeQuery(range, user_ab_->roles());
  EXPECT_EQ(basic_vo.entries.size(), 7u);  // one per cell
  std::vector<Record> r1, r2;
  ASSERT_TRUE(Verified(user_ab_->VerifyRange(range, tree_vo, &r1)));
  ASSERT_TRUE(Verified(user_ab_->VerifyRange(range, basic_vo, &r2)));
  auto key_of = [](const Record& r) { return r.key[0]; };
  std::set<std::uint32_t> k1, k2;
  for (const auto& r : r1) k1.insert(key_of(r));
  for (const auto& r : r2) k2.insert(key_of(r));
  EXPECT_EQ(k1, k2);
  // The tree VO is no larger than the basic VO.
  EXPECT_LE(tree_vo.entries.size(), basic_vo.entries.size());
}

TEST_F(SystemTest, VoSerializationRoundTrip) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  common::ByteWriter w;
  vo.Serialize(&w);
  common::ByteReader r(w.data());
  Vo back = Vo::DeserializeRaw(&r);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(Verified(user_ab_->VerifyRange(range, back, nullptr)));
}

TEST_F(SystemTest, SealedEqualityQuery) {
  cpabe::Envelope env = sp_->SealedEqualityQuery(Point{1}, user_ab_->roles());
  Record result;
  bool accessible = false;
  ASSERT_TRUE(Verified(user_ab_->OpenAndVerifyEquality(Point{1}, env, &result,
                                                       &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(result.value, "v1");
  EXPECT_TRUE(
      Rejected(user_c_->OpenAndVerifyEquality(Point{1}, env, nullptr, nullptr),
               VerifyCode::kPolicyNotSatisfied));
  EXPECT_GT(env.SerializedSize(), 0u);
}

TEST_F(SystemTest, SealedRangeOnlyOpensForClaimedRoles) {
  Box range{Point{1}, Point{6}};
  cpabe::Envelope env = sp_->SealedRangeQuery(range, user_ab_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(Verified(user_ab_->OpenAndVerifyRange(range, env, &results)));
  // A RoleC user impersonating {A,B} cannot open the response.
  EXPECT_TRUE(Rejected(user_c_->OpenAndVerifyRange(range, env, nullptr),
                       VerifyCode::kPolicyNotSatisfied));
}

TEST_F(SystemTest, SealedVoWithTrailingBytesIsMalformed) {
  // A sealed response must hold exactly one VO, as on every other wire
  // decode path: bytes after it make the response malformed, on both sealed
  // query shapes.
  auto seal = [&](const Vo& vo, bool pad) {
    common::ByteWriter w;
    vo.Serialize(&w);
    std::vector<std::uint8_t> bytes = w.Take();
    if (pad) bytes.push_back(0x00);
    Rng rng(2018);
    return cpabe::Seal(owner_->keys().cpk,
                       Policy::AndOfRoles(user_ab_->roles()), bytes, &rng);
  };
  Box range{Point{1}, Point{6}};
  Vo range_vo = sp_->RangeQuery(range, user_ab_->roles());
  ASSERT_TRUE(Verified(
      user_ab_->OpenAndVerifyRange(range, seal(range_vo, false), nullptr)));
  EXPECT_TRUE(Rejected(
      user_ab_->OpenAndVerifyRange(range, seal(range_vo, true), nullptr),
      VerifyCode::kMalformedVo));

  Vo eq_vo = sp_->EqualityQuery(Point{1}, user_ab_->roles());
  bool accessible = false;
  EXPECT_TRUE(Rejected(user_ab_->OpenAndVerifyEquality(
                           Point{1}, seal(eq_vo, true), nullptr, &accessible),
                       VerifyCode::kMalformedVo));
}

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Domain domain{1, 4};
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB"}, domain,
                                         777);
    std::vector<Record> r_records = {
        Rec(1, "r1", "RoleA"),
        Rec(3, "r3", "RoleA"),
        Rec(5, "r5", "RoleB"),
        Rec(9, "r9", "RoleA & RoleB"),
    };
    std::vector<Record> s_records = {
        Rec(1, "s1", "RoleA"),
        Rec(4, "s4", "RoleB"),
        Rec(9, "s9", "RoleB"),
        Rec(11, "s11", "RoleA"),
    };
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(r_records));
    sp_->AttachJoinTable(owner_->BuildAds(s_records));
    user_a_ = std::make_unique<User>(owner_->keys(),
                                     owner_->EnrollUser({"RoleA"}));
    user_ab_ = std::make_unique<User>(owner_->keys(),
                                      owner_->EnrollUser({"RoleA", "RoleB"}));
  }

  std::unique_ptr<DataOwner> owner_;
  std::unique_ptr<ServiceProvider> sp_;
  std::unique_ptr<User> user_a_, user_ab_;
};

TEST_F(JoinTest, JoinReturnsAccessiblePairs) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  std::vector<std::pair<Record, Record>> results;
  ASSERT_TRUE(Verified(user_ab_->VerifyJoin(range, vo, &results)));
  // Matching keys with both sides real: 1 and 9; both accessible to {A,B}.
  std::set<std::uint32_t> keys;
  for (const auto& [r, s] : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1, 9}));
}

TEST_F(JoinTest, JoinFiltersInaccessibleSides) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_a_->roles());
  std::vector<std::pair<Record, Record>> results;
  ASSERT_TRUE(Verified(user_a_->VerifyJoin(range, vo, &results)));
  // Key 9 pair exists but R side needs RoleB: only key 1 joins for RoleA.
  std::set<std::uint32_t> keys;
  for (const auto& [r, s] : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1}));
}

TEST_F(JoinTest, JoinRejectsDroppedPair) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  JoinVo bad = vo;
  ASSERT_FALSE(bad.pairs.empty());
  bad.pairs.pop_back();
  EXPECT_TRUE(Rejected(user_ab_->VerifyJoin(range, bad, nullptr),
                       VerifyCode::kCoverageGap));
}

TEST_F(JoinTest, JoinRejectsMismatchedPairKeys) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  ASSERT_GE(vo.pairs.size(), 2u);
  JoinVo bad = vo;
  std::swap(bad.pairs[0].s, bad.pairs[1].s);
  EXPECT_TRUE(Rejected(user_ab_->VerifyJoin(range, bad, nullptr),
                       VerifyCode::kKeyMismatch, 0));
}

TEST_F(JoinTest, JoinSerializationRoundTrip) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  common::ByteWriter w;
  vo.Serialize(&w);
  common::ByteReader r(w.data());
  JoinVo back = JoinVo::DeserializeRaw(&r);
  EXPECT_TRUE(Verified(user_ab_->VerifyJoin(range, back, nullptr)));
  EXPECT_EQ(vo.SerializedSize(), w.size());
}

TEST_F(JoinTest, BasicJoinMatchesTreeJoin) {
  Box range{Point{0}, Point{15}};
  JoinVo tree_vo = sp_->JoinQuery(range, user_ab_->roles());
  JoinVo basic_vo = sp_->BasicJoinQuery(range, user_ab_->roles());
  std::vector<std::pair<Record, Record>> r1, r2;
  ASSERT_TRUE(Verified(user_ab_->VerifyJoin(range, tree_vo, &r1)));
  ASSERT_TRUE(Verified(user_ab_->VerifyJoin(range, basic_vo, &r2)));
  EXPECT_EQ(r1.size(), r2.size());
  EXPECT_LE(tree_vo.SerializedSize(), basic_vo.SerializedSize());
}

class MultiDimTest : public ::testing::Test {};

TEST_F(MultiDimTest, TwoDimensionalRange) {
  Domain domain{2, 2};  // 4x4 grid
  DataOwner owner({"RoleA", "RoleB"}, domain, 99);
  std::vector<Record> records = {
      Record{Point{0, 0}, "a", Policy::Parse("RoleA")},
      Record{Point{1, 2}, "b", Policy::Parse("RoleB")},
      Record{Point{2, 1}, "c", Policy::Parse("RoleA & RoleB")},
      Record{Point{3, 3}, "d", Policy::Parse("RoleA | RoleB")},
  };
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  User user(owner.keys(), owner.EnrollUser({"RoleA"}));

  Box range{Point{0, 0}, Point{2, 2}};
  Vo vo = sp.RangeQuery(range, user.roles());
  std::vector<Record> results;
  ASSERT_TRUE(Verified(user.VerifyRange(range, vo, &results)));
  std::set<std::string> values;
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::set<std::string>{"a"}));

  // Records b (RoleB) and c (A&B) are inside but inaccessible; d outside.
  Box range2{Point{0, 0}, Point{3, 3}};
  Vo vo2 = sp.RangeQuery(range2, user.roles());
  results.clear();
  ASSERT_TRUE(Verified(user.VerifyRange(range2, vo2, &results)));
  values.clear();
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::set<std::string>{"a", "d"}));
}

// The §8.2 parallel path: ADS construction and SP-side relaxation run on a
// thread pool. Results must be interchangeable with the serial path, and
// the test doubles as the TSan workload in scripts/check.sh.
TEST(ParallelPathTest, ThreadedBuildAndQueriesMatchSerial) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 777);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 24; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }

  ThreadPool pool(4);
  ServiceProvider sp_par(owner.keys(), owner.BuildAds(records, &pool),
                         /*threads=*/4);
  User user(owner.keys(), owner.EnrollUser({"RoleA"}));

  Box range{Point{2}, Point{19}};
  std::vector<Record> results;
  ASSERT_TRUE(Verified(user.VerifyRange(
      range, sp_par.RangeQuery(range, user.roles()), &results)));
  std::set<std::string> got;
  for (const auto& r : results) got.insert(r.value);

  ServiceProvider sp_ser(owner.keys(), owner.BuildAds(records),
                         /*threads=*/1);
  results.clear();
  ASSERT_TRUE(Verified(user.VerifyRange(
      range, sp_ser.RangeQuery(range, user.roles()), &results)));
  std::set<std::string> want;
  for (const auto& r : results) want.insert(r.value);
  EXPECT_EQ(got, want);

  // Equality through the pool-backed SP as well.
  Record rec;
  bool accessible = false;
  ASSERT_TRUE(Verified(user.VerifyEquality(
      Point{3}, sp_par.EqualityQuery(Point{3}, user.roles()), &rec,
      &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(rec.value, "v3");

  // Join through the pool-backed SP: blocking covers on both sides are
  // relaxed on the pool and must yield the same verified pairs.
  std::vector<Record> s_records;
  for (std::uint32_t k = 0; k < 24; ++k) {
    s_records.push_back(
        Rec(k, "s" + std::to_string(k), (k % 4 == 1) ? "RoleB" : "RoleA"));
  }
  sp_par.AttachJoinTable(owner.BuildAds(s_records, &pool));
  sp_ser.AttachJoinTable(owner.BuildAds(s_records));
  auto join_pairs = [&](ServiceProvider& sp) {
    JoinVo vo = sp.JoinQuery(range, user.roles());
    EXPECT_GT(vo.r_aps.size() + vo.s_aps.size(), 1u);
    std::vector<std::pair<Record, Record>> pairs;
    EXPECT_TRUE(Verified(user.VerifyJoin(range, vo, &pairs)));
    std::set<std::string> out;
    for (const auto& [r, s] : pairs) out.insert(r.value + "+" + s.value);
    return out;
  };
  std::set<std::string> par_pairs = join_pairs(sp_par);
  EXPECT_FALSE(par_pairs.empty());
  EXPECT_EQ(par_pairs, join_pairs(sp_ser));
}

// User-side fan-out: the same VO verified serially and over a pool must
// yield an identical VerifyResult (code, entry index, detail) and identical
// emitted records, both for valid and tampered VOs. Also part of the TSan
// workload in scripts/check.sh.
TEST(ParallelPathTest, ParallelVerifyMatchesSerialByteForByte) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 4321);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 24; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();

  Box range{Point{1}, Point{20}};
  Vo vo = sp.RangeQuery(range, creds.roles);
  ThreadPool pool(4);

  auto run = [&](const Vo& v, ThreadPool* p, std::vector<Record>* out) {
    return VerifyRangeVoEx(keys.mvk, keys.domain, range, creds.roles,
                           keys.universe, v, out, /*exact_pairings=*/false, p);
  };
  auto same = [](const VerifyResult& a, const VerifyResult& b) {
    return a.code == b.code && a.entry_index == b.entry_index &&
           a.detail == b.detail;
  };
  auto same_records = [](const std::vector<Record>& a,
                         const std::vector<Record>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
    }
    return true;
  };

  std::vector<Record> serial_out, pooled_out;
  VerifyResult serial = run(vo, nullptr, &serial_out);
  VerifyResult pooled = run(vo, &pool, &pooled_out);
  EXPECT_TRUE(serial.ok()) << serial.ToString();
  EXPECT_TRUE(same(serial, pooled))
      << serial.ToString() << " vs " << pooled.ToString();
  EXPECT_TRUE(same_records(serial_out, pooled_out));
  EXPECT_FALSE(serial_out.empty());

  // Tamper with one accessible record's value: the APP signature check for
  // that entry fails, and both paths must report the same entry with the
  // same partial results.
  Vo bad = vo;
  for (auto& entry : bad.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) {
      res->value += "-tampered";
      break;
    }
  }
  serial_out.clear();
  pooled_out.clear();
  VerifyResult serial_bad = run(bad, nullptr, &serial_out);
  VerifyResult pooled_bad = run(bad, &pool, &pooled_out);
  EXPECT_FALSE(serial_bad.ok());
  EXPECT_EQ(serial_bad.code, VerifyCode::kBadSignature);
  EXPECT_TRUE(same(serial_bad, pooled_bad))
      << serial_bad.ToString() << " vs " << pooled_bad.ToString();
  EXPECT_TRUE(same_records(serial_out, pooled_out));

  // The User facade with threads > 1 agrees with the serial facade.
  User user_par(owner.keys(), creds, /*threads=*/4);
  User user_ser(owner.keys(), creds);
  std::vector<Record> par_results, ser_results;
  ASSERT_TRUE(Verified(user_par.VerifyRange(range, vo, &par_results)));
  ASSERT_TRUE(Verified(user_ser.VerifyRange(range, vo, &ser_results)));
  EXPECT_TRUE(same_records(par_results, ser_results));
  EXPECT_TRUE(Rejected(user_par.VerifyRange(range, bad, nullptr),
                       serial_bad.code, serial_bad.entry_index));
}

// Join verification over a pool: diagnostics and emitted pairs must match
// the serial path, including after tampering with one side of a pair.
TEST(ParallelPathTest, ParallelJoinVerifyMatchesSerial) {
  Domain domain{/*dims=*/1, /*bits=*/4};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 99);
  std::vector<Record> r_records, s_records;
  for (std::uint32_t k = 0; k < 12; ++k) {
    r_records.push_back(Rec(k, "r" + std::to_string(k),
                            (k % 4 == 1) ? "RoleB" : "RoleA"));
    s_records.push_back(Rec(k, "s" + std::to_string(k), "RoleA"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(r_records));
  sp.AttachJoinTable(owner.BuildAds(s_records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();

  Box range{Point{0}, Point{11}};
  JoinVo vo = sp.JoinQuery(range, creds.roles);
  ThreadPool pool(4);

  auto run = [&](const JoinVo& v, ThreadPool* p,
                 std::vector<std::pair<Record, Record>>* out) {
    return VerifyJoinVoEx(keys.mvk, keys.domain, range, creds.roles,
                          keys.universe, v, out, /*exact_pairings=*/false, p);
  };

  std::vector<std::pair<Record, Record>> serial_out, pooled_out;
  VerifyResult serial = run(vo, nullptr, &serial_out);
  VerifyResult pooled = run(vo, &pool, &pooled_out);
  EXPECT_TRUE(serial.ok()) << serial.ToString();
  EXPECT_EQ(serial.code, pooled.code);
  EXPECT_EQ(serial.entry_index, pooled.entry_index);
  EXPECT_EQ(serial.detail, pooled.detail);
  ASSERT_EQ(serial_out.size(), pooled_out.size());
  EXPECT_FALSE(serial_out.empty());

  ASSERT_FALSE(vo.pairs.empty());
  JoinVo bad = vo;
  bad.pairs.back().s.value += "-tampered";
  serial_out.clear();
  pooled_out.clear();
  VerifyResult serial_bad = run(bad, nullptr, &serial_out);
  VerifyResult pooled_bad = run(bad, &pool, &pooled_out);
  EXPECT_FALSE(serial_bad.ok());
  EXPECT_EQ(serial_bad.code, VerifyCode::kBadSignature);
  EXPECT_EQ(serial_bad.code, pooled_bad.code);
  EXPECT_EQ(serial_bad.entry_index, pooled_bad.entry_index);
  EXPECT_EQ(serial_bad.detail, pooled_bad.detail);
  EXPECT_EQ(serial_out.size(), pooled_out.size());
}

// --- Whole-VO batched verification vs the retained per-signature path ---

bool SameResult(const VerifyResult& a, const VerifyResult& b) {
  return a.code == b.code && a.entry_index == b.entry_index &&
         a.detail == b.detail;
}

bool SameRecords(const std::vector<Record>& a, const std::vector<Record>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  }
  return true;
}

// The default verify path folds every ABS check of a VO into one batch
// (core/parallel_verify.h). It must be observationally identical to the
// exact reference arm — same VerifyResult (code, entry index, detail) and
// same emitted records — on valid AND tampered VOs, for every VO shape. Two
// inputs select the reference: a ScopedPerSignatureVerify guard and the
// public exact_pairings=true flag; both are compared against the batch.
enum class VerifyArm { kBatched, kScopedReference, kExactPairings };
constexpr VerifyArm kReferenceArms[] = {VerifyArm::kScopedReference,
                                        VerifyArm::kExactPairings};

const char* ArmName(VerifyArm arm) {
  switch (arm) {
    case VerifyArm::kBatched:
      return "batched";
    case VerifyArm::kScopedReference:
      return "ScopedPerSignatureVerify";
    case VerifyArm::kExactPairings:
      return "exact_pairings";
  }
  return "?";
}

// Runs `verify(exact_pairings)` on the given arm.
template <typename Fn>
VerifyResult RunOnArm(VerifyArm arm, const Fn& verify) {
  if (arm == VerifyArm::kScopedReference) {
    ScopedPerSignatureVerify guard;
    return verify(false);
  }
  return verify(arm == VerifyArm::kExactPairings);
}

abs::Signature& EntrySignature(VoEntry& entry) {
  if (auto* res = std::get_if<ResultEntry>(&entry)) return res->app_sig;
  if (auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
    return rec->aps_sig;
  }
  return std::get<InaccessibleBoxEntry>(entry).aps_sig;
}

TEST(ParallelPathTest, BatchedMatchesPerSignatureByteForByte) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 31337);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 20; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();
  Box range{Point{1}, Point{18}};

  auto run_range = [&](const Vo& v, std::vector<Record>* out,
                       VerifyArm arm) -> VerifyResult {
    return RunOnArm(arm, [&](bool exact) {
      return VerifyRangeVoEx(keys.mvk, keys.domain, range, creds.roles,
                             keys.universe, v, out, exact);
    });
  };
  // Batched verdict and records, each reference compared against them.
  auto check_range = [&](const Vo& v, std::vector<Record>* batched_out,
                         const std::string& what) -> VerifyResult {
    VerifyResult b = run_range(v, batched_out, VerifyArm::kBatched);
    for (VerifyArm ref : kReferenceArms) {
      std::vector<Record> ref_out;
      VerifyResult r = run_range(v, &ref_out, ref);
      EXPECT_TRUE(SameResult(b, r)) << what << ", " << ArmName(ref) << ": "
                                    << b.ToString() << " vs " << r.ToString();
      EXPECT_TRUE(SameRecords(*batched_out, ref_out))
          << what << ", " << ArmName(ref);
    }
    return b;
  };

  // Range: valid, then one tampered ResultEntry (first / middle / last).
  Vo vo = sp.RangeQuery(range, creds.roles);
  std::vector<std::size_t> result_positions;
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    if (std::holds_alternative<ResultEntry>(vo.entries[i])) {
      result_positions.push_back(i);
    }
  }
  ASSERT_GE(result_positions.size(), 3u);

  std::vector<Record> batched_out;
  VerifyResult batched = check_range(vo, &batched_out, "valid range");
  EXPECT_TRUE(batched.ok()) << batched.ToString();
  EXPECT_FALSE(batched_out.empty());

  for (std::size_t pos : {result_positions.front(),
                          result_positions[result_positions.size() / 2],
                          result_positions.back()}) {
    Vo bad = vo;
    std::get<ResultEntry>(bad.entries[pos]).value += "-tampered";
    batched_out.clear();
    VerifyResult b =
        check_range(bad, &batched_out, "entry " + std::to_string(pos));
    EXPECT_FALSE(b.ok());
    EXPECT_EQ(b.code, VerifyCode::kBadSignature);
  }

  // Second job fails structurally (one S component too many): the batch
  // accumulates exactly one signature before it and checks that alone.
  ASSERT_GE(vo.entries.size(), 2u);
  Vo shape = vo;
  EntrySignature(shape.entries[1]).s.push_back(crypto::G1Generator());
  batched_out.clear();
  VerifyResult bs = check_range(shape, &batched_out, "structural job 1");
  EXPECT_EQ(bs.code, VerifyCode::kBadSignature) << bs.ToString();
  EXPECT_EQ(bs.entry_index, 1) << bs.ToString();

  // Equality: accessible record, valid and tampered.
  auto run_eq = [&](const Vo& v, Record* rec, bool* acc,
                    VerifyArm arm) -> VerifyResult {
    return RunOnArm(arm, [&](bool exact) {
      return VerifyEqualityVoEx(keys.mvk, keys.domain, Point{3}, creds.roles,
                                keys.universe, v, rec, acc, exact);
    });
  };
  Vo evo = sp.EqualityQuery(Point{3}, creds.roles);
  Record brec;
  bool bacc = false;
  VerifyResult be = run_eq(evo, &brec, &bacc, VerifyArm::kBatched);
  EXPECT_TRUE(be.ok()) << be.ToString();
  for (VerifyArm ref : kReferenceArms) {
    Record srec;
    bool sacc = false;
    VerifyResult se = run_eq(evo, &srec, &sacc, ref);
    EXPECT_TRUE(SameResult(be, se)) << ArmName(ref);
    EXPECT_EQ(bacc, sacc) << ArmName(ref);
    EXPECT_EQ(brec.value, srec.value) << ArmName(ref);
  }
  Vo ebad = evo;
  for (auto& entry : ebad.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) res->value += "x";
  }
  be = run_eq(ebad, nullptr, &bacc, VerifyArm::kBatched);
  EXPECT_FALSE(be.ok());
  for (VerifyArm ref : kReferenceArms) {
    bool sacc = false;
    VerifyResult se = run_eq(ebad, nullptr, &sacc, ref);
    EXPECT_TRUE(SameResult(be, se))
        << ArmName(ref) << ": " << be.ToString() << " vs " << se.ToString();
  }

  // Join: valid and tampered pair.
  ServiceProvider spj(owner.keys(), owner.BuildAds(records));
  spj.AttachJoinTable(owner.BuildAds(records));
  JoinVo jvo = spj.JoinQuery(range, creds.roles);
  using JoinRows = std::vector<std::pair<Record, Record>>;
  auto run_join = [&](const JoinVo& v, JoinRows* out,
                      VerifyArm arm) -> VerifyResult {
    return RunOnArm(arm, [&](bool exact) {
      return VerifyJoinVoEx(keys.mvk, keys.domain, range, creds.roles,
                            keys.universe, v, out, exact);
    });
  };
  auto check_join = [&](const JoinVo& v, const char* what) -> VerifyResult {
    JoinRows bjout;
    VerifyResult bj = run_join(v, &bjout, VerifyArm::kBatched);
    for (VerifyArm ref : kReferenceArms) {
      JoinRows sjout;
      VerifyResult sj = run_join(v, &sjout, ref);
      EXPECT_TRUE(SameResult(bj, sj)) << what << ", " << ArmName(ref) << ": "
                                      << bj.ToString() << " vs "
                                      << sj.ToString();
      EXPECT_EQ(bjout.size(), sjout.size()) << what << ", " << ArmName(ref);
    }
    return bj;
  };
  VerifyResult bj = check_join(jvo, "valid join");
  EXPECT_TRUE(bj.ok()) << bj.ToString();
  ASSERT_FALSE(jvo.pairs.empty());
  JoinVo jbad = jvo;
  jbad.pairs.front().r.value += "-tampered";
  bj = check_join(jbad, "tampered join");
  EXPECT_FALSE(bj.ok());
}

// Same equivalence for the kd-tree verifier, which batches through the same
// SigBatch.
TEST(ParallelPathTest, KdBatchedMatchesPerSignature) {
  Rng rng(808);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  RoleSet universe = {"RoleA", "RoleB", "RoleC"};
  RoleSet all = universe;
  all.insert(kPseudoRole);
  abs::SigningKey sk = abs::Abs::KeyGen(msk, all, &rng);

  Domain domain{1, 5};
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 12; ++k) {
    records.push_back(Rec(2 * k + 1, "v" + std::to_string(k),
                          (k % 2 == 0) ? "RoleA" : "RoleB"));
  }
  KdTree tree = KdTree::Build(mvk, sk, domain, records, &rng);
  RoleSet user = {"RoleA"};
  Box range{Point{2}, Point{27}};
  KdVo vo = BuildKdRangeVo(tree, mvk, range, user, universe, &rng);

  auto run = [&](const KdVo& v, std::vector<Record>* out,
                 bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyKdRangeVoEx(mvk, domain, range, user, universe, v, out);
    }
    return VerifyKdRangeVoEx(mvk, domain, range, user, universe, v, out);
  };

  std::vector<Record> bout, sout;
  VerifyResult b = run(vo, &bout, false);
  VerifyResult s = run(vo, &sout, true);
  EXPECT_TRUE(b.ok()) << b.ToString();
  EXPECT_TRUE(SameResult(b, s)) << b.ToString() << " vs " << s.ToString();
  EXPECT_TRUE(SameRecords(bout, sout));
  EXPECT_FALSE(bout.empty());

  ASSERT_FALSE(vo.results.empty());
  KdVo bad = vo;
  bad.results[vo.results.size() / 2].value += "-tampered";
  bout.clear();
  sout.clear();
  b = run(bad, &bout, false);
  s = run(bad, &sout, true);
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(SameResult(b, s)) << b.ToString() << " vs " << s.ToString();
  EXPECT_TRUE(SameRecords(bout, sout));
}

// Bisect blame recovery: when the whole-VO batch fails, SigBatch bisects to
// the LOWEST failing job, so blame and partial-record emission must equal
// the sequential verifier's with 1, 2, and all signatures tampered.
TEST(ParallelPathTest, BisectRecoversLowestFailingIndex) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 60606);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 16; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 2 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();
  Box range{Point{0}, Point{15}};
  Vo vo = sp.RangeQuery(range, creds.roles);

  std::vector<std::size_t> result_positions;
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    if (std::holds_alternative<ResultEntry>(vo.entries[i])) {
      result_positions.push_back(i);
    }
  }
  ASSERT_GE(result_positions.size(), 3u);

  auto run = [&](const Vo& v, std::vector<Record>* out,
                 bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyRangeVoEx(keys.mvk, keys.domain, range, creds.roles,
                             keys.universe, v, out);
    }
    return VerifyRangeVoEx(keys.mvk, keys.domain, range, creds.roles,
                           keys.universe, v, out);
  };

  auto check_case = [&](const Vo& bad, const char* what) {
    std::vector<Record> bout, sout;
    VerifyResult b = run(bad, &bout, false);
    VerifyResult s = run(bad, &sout, true);
    EXPECT_FALSE(b.ok()) << what;
    EXPECT_TRUE(SameResult(b, s))
        << what << ": " << b.ToString() << " vs " << s.ToString();
    EXPECT_TRUE(SameRecords(bout, sout)) << what;
  };

  // One tampered signature, somewhere in the middle.
  Vo one = vo;
  std::get<ResultEntry>(one.entries[result_positions[1]]).value += "x";
  check_case(one, "one tampered");

  // Two tampered signatures: blame must land on the lower one.
  Vo two = vo;
  std::get<ResultEntry>(two.entries[result_positions[1]]).value += "x";
  std::get<ResultEntry>(two.entries[result_positions.back()]).value += "x";
  check_case(two, "two tampered");

  // Every accessible record tampered: blame is the first job, no records.
  Vo all = vo;
  for (auto& entry : all.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) res->value += "x";
  }
  check_case(all, "all tampered");
}

}  // namespace
}  // namespace apqa::core
