#include "src/textscan/inference.h"

#include <gtest/gtest.h>

namespace tde {
namespace {

TEST(Records, NextRecordHandlesLineEndings) {
  const std::string data = "a\nb\r\nc";
  size_t pos = 0;
  std::string_view rec;
  ASSERT_TRUE(NextRecord(data, &pos, &rec));
  EXPECT_EQ(rec, "a");
  ASSERT_TRUE(NextRecord(data, &pos, &rec));
  EXPECT_EQ(rec, "b");
  ASSERT_TRUE(NextRecord(data, &pos, &rec));
  EXPECT_EQ(rec, "c");
  EXPECT_FALSE(NextRecord(data, &pos, &rec));
}

TEST(Records, SplitRecord) {
  std::vector<std::string_view> f;
  SplitRecord("a|b||d", '|', &f);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "");
  EXPECT_EQ(f[3], "d");
  SplitRecord("", '|', &f);
  ASSERT_EQ(f.size(), 1u);
}

TEST(Records, SplitRecordKeepsQuotedSeparators) {
  std::vector<std::string_view> f;
  SplitRecord("a,\"b,c\",d", ',', &f);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "\"b,c\"");  // quotes kept; UnquoteField strips them
  EXPECT_EQ(f[2], "d");
  // A doubled quote inside a quoted field does not end the quoting.
  SplitRecord("\"say \"\"hi, there\"\"\",2", ',', &f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "\"say \"\"hi, there\"\"\"");
  EXPECT_EQ(f[1], "2");
}

TEST(Records, NextRecordKeepsQuotedNewlines) {
  const std::string data = "a,\"line1\nline2\",z\nnext,row,here\n";
  size_t pos = 0;
  std::string_view rec;
  ASSERT_TRUE(NextRecord(data, &pos, &rec));
  EXPECT_EQ(rec, "a,\"line1\nline2\",z");
  ASSERT_TRUE(NextRecord(data, &pos, &rec));
  EXPECT_EQ(rec, "next,row,here");
  EXPECT_FALSE(NextRecord(data, &pos, &rec));
}

// SkipRecords cuts where NextRecord does, without materializing records:
// an exhaustive check over every string of up to eight bytes drawn from
// the characters that matter to record boundaries.
TEST(Records, SkipRecordsMatchesNextRecord) {
  const std::string alphabet = "a\"\n\r";
  for (size_t len = 0; len <= 8; ++len) {
    size_t count = 1;
    for (size_t i = 0; i < len; ++i) count *= alphabet.size();
    for (size_t code = 0; code < count; ++code) {
      std::string data;
      for (size_t i = 0, c = code; i < len; ++i, c /= alphabet.size()) {
        data += alphabet[c % alphabet.size()];
      }
      // Where NextRecord leaves off after each non-empty record.
      std::vector<size_t> ends;
      size_t pos = 0;
      std::string_view rec;
      while (NextRecord(data, &pos, &rec)) {
        if (!rec.empty()) ends.push_back(pos);
      }
      for (size_t step = 1; step <= 3; ++step) {
        size_t at = 0;
        size_t seen = 0;
        while (true) {
          const size_t got = SkipRecords(data, &at, step);
          seen += got;
          if (got < step) break;  // ran out of records
          ASSERT_EQ(at, ends[seen - 1])
              << "data '" << data << "' step " << step;
        }
        ASSERT_EQ(seen, ends.size()) << "data '" << data << "'";
        ASSERT_EQ(at, data.size()) << "data '" << data << "'";
      }
    }
  }
}

TEST(Inference, QuotedSeparatorsDoNotSkewSeparatorDetection) {
  // Every row has commas inside quotes; the real separator is '|'.
  auto r = InferFormat(
      "\"a,b,c\"|1\n\"d,e,f\"|2\n\"g,h,i\"|3\n\"j,k,l\"|4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().field_separator, '|');
  EXPECT_EQ(r.value().schema.num_fields(), 2u);
}

TEST(Inference, QuotedHeaderNamesAreUnescaped) {
  auto r = InferFormat(
      "\"name\",\"the \"\"big\"\" one\"\nx,1\ny,2\n");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_header);
  ASSERT_EQ(r.value().schema.num_fields(), 2u);
  EXPECT_EQ(r.value().schema.field(0).name, "name");
  EXPECT_EQ(r.value().schema.field(1).name, "the \"big\" one");
}

TEST(Inference, DetectsCommaSeparator) {
  auto r = InferFormat("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().field_separator, ',');
}

TEST(Inference, DetectsPipeSeparator) {
  auto r = InferFormat("1|2,5|x\n3|4,7|y\n9|1,2|z\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().field_separator, '|');
}

TEST(Inference, DetectsTabSeparator) {
  auto r = InferFormat("1\t2\n3\t4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().field_separator, '\t');
}

TEST(Inference, CompetitiveTyping) {
  auto r = InferFormat(
      "id,price,when,flag,name\n"
      "1,2.5,2001-02-03,true,alice\n"
      "2,3.75,2002-03-04,false,bob\n"
      "3,4,2003-04-05,true,carol\n");
  ASSERT_TRUE(r.ok());
  const Schema& s = r.value().schema;
  ASSERT_EQ(s.num_fields(), 5u);
  EXPECT_EQ(s.field(0).type, TypeId::kInteger);
  EXPECT_EQ(s.field(1).type, TypeId::kReal);
  EXPECT_EQ(s.field(2).type, TypeId::kDate);
  EXPECT_EQ(s.field(3).type, TypeId::kBool);
  EXPECT_EQ(s.field(4).type, TypeId::kString);
}

TEST(Inference, HeaderDetectedByParserErrorsOnFirstRow) {
  auto with = InferFormat("count,when\n1,2001-01-01\n2,2001-01-02\n");
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with.value().has_header);
  EXPECT_EQ(with.value().schema.field(0).name, "count");
  EXPECT_EQ(with.value().schema.field(1).name, "when");

  auto without = InferFormat("5,2001-01-01\n6,2001-01-02\n7,2001-01-03\n");
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without.value().has_header);
  EXPECT_EQ(without.value().schema.field(0).name, "col0");
}

TEST(Inference, DirtyColumnFallsBackToString) {
  auto r = InferFormat("x\n1\n2\noops\n4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema.field(0).type, TypeId::kString);
}

TEST(Inference, EmptyValuesDoNotVote) {
  auto r = InferFormat("x\n1\n\n2\n\n3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema.field(0).type, TypeId::kInteger);
}

TEST(Inference, DateTimeBeatsDateWhenNeeded) {
  auto r = InferFormat("t\n2001-01-01 10:00:00\n2001-01-02 11:30:00\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema.field(0).type, TypeId::kDateTime);
}

TEST(Inference, EmptyInputFails) {
  EXPECT_EQ(InferFormat("").status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace tde
