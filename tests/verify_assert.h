// gtest assertions over core::VerifyResult verdicts, so a failing check
// prints the verifier's own diagnosis instead of a bare "false":
//
//   ASSERT_TRUE(Verified(user.VerifyRange(range, vo, &rows)));
//   EXPECT_TRUE(Rejected(user.VerifyRange(range, bad, nullptr),
//                        VerifyCode::kCoverageGap));
#ifndef APQA_TESTS_VERIFY_ASSERT_H_
#define APQA_TESTS_VERIFY_ASSERT_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/verify_result.h"

namespace apqa::core {

inline ::testing::AssertionResult Verified(const VerifyResult& r) {
  if (r.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << r.ToString();
}

// Passes iff `r` failed with exactly `code` at `entry_index` (-1: the
// failure names no single entry).
inline ::testing::AssertionResult Rejected(const VerifyResult& r,
                                           VerifyCode code,
                                           std::ptrdiff_t entry_index = -1) {
  if (r.code == code && r.entry_index == entry_index) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got \"" << r.ToString() << "\", want " << VerifyCodeName(code)
         << " at entry " << entry_index;
}

}  // namespace apqa::core

#endif  // APQA_TESTS_VERIFY_ASSERT_H_
