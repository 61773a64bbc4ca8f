#include "common/status.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace homets {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kComputeError), "ComputeError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnknown), "Unknown");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
}

TEST(StatusTest, CancellationFactories) {
  const Status cancelled = Status::Cancelled("stopped by caller");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: stopped by caller");
  const Status late = Status::DeadlineExceeded("over budget");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: over budget");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ConstructingFromOkStatusBecomesUnknownError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnknown);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  HOMETS_ASSIGN_OR_RETURN(const int half, Half(x));
  HOMETS_ASSIGN_OR_RETURN(const int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagatesErrors) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(7).status().code(), StatusCode::kInvalidArgument);
}

Status FailWhenNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Check(int a, int b) {
  HOMETS_RETURN_IF_ERROR(FailWhenNegative(a));
  HOMETS_RETURN_IF_ERROR(FailWhenNegative(b));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Check(1, 2).ok());
  EXPECT_EQ(Check(-1, 2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Check(1, -2).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace homets
