#include "crypto/aes.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "util/bytes.h"
#include "util/random.h"

namespace essdds::crypto {
namespace {

Bytes Hex(const std::string& s) {
  auto r = HexDecode(s);
  EXPECT_TRUE(r.ok()) << s;
  return *r;
}

struct AesVector {
  std::string key;
  std::string plaintext;
  std::string ciphertext;
};

// Names each instance by key size and ciphertext. Without this, gtest prints
// the raw bytes of the struct, string heap pointers included, and the test
// names that CTest discovers change from one run to the next.
void PrintTo(const AesVector& v, std::ostream* os) {
  *os << "AES-" << v.key.size() * 4 << " ct " << v.ciphertext;
}

class AesKnownAnswerTest : public ::testing::TestWithParam<AesVector> {};

// FIPS-197 Appendix B and C known-answer vectors.
INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKnownAnswerTest,
    ::testing::Values(
        AesVector{"2b7e151628aed2a6abf7158809cf4f3c",
                  "3243f6a8885a308d313198a2e0370734",
                  "3925841d02dc09fbdc118597196a0b32"},
        AesVector{"000102030405060708090a0b0c0d0e0f",
                  "00112233445566778899aabbccddeeff",
                  "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesVector{"000102030405060708090a0b0c0d0e0f1011121314151617",
                  "00112233445566778899aabbccddeeff",
                  "dda97ca4864cdfe06eaf70a0ec0d7191"},
        AesVector{
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089"}));

TEST_P(AesKnownAnswerTest, EncryptMatchesVector) {
  const AesVector& v = GetParam();
  auto aes = Aes::Create(Hex(v.key));
  ASSERT_TRUE(aes.ok());
  Bytes pt = Hex(v.plaintext);
  uint8_t ct[Aes::kBlockSize];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), v.ciphertext);
}

TEST_P(AesKnownAnswerTest, DecryptInvertsVector) {
  const AesVector& v = GetParam();
  auto aes = Aes::Create(Hex(v.key));
  ASSERT_TRUE(aes.ok());
  Bytes ct = Hex(v.ciphertext);
  uint8_t pt[Aes::kBlockSize];
  aes->DecryptBlock(ct.data(), pt);
  EXPECT_EQ(HexEncode(ByteSpan(pt, 16)), v.plaintext);
}

TEST(AesTest, RejectsBadKeySizes) {
  Bytes short_key(15, 0);
  EXPECT_FALSE(Aes::Create(short_key).ok());
  Bytes long_key(33, 0);
  EXPECT_FALSE(Aes::Create(long_key).ok());
  Bytes empty;
  EXPECT_FALSE(Aes::Create(empty).ok());
}

TEST(AesTest, RoundsPerKeySize) {
  EXPECT_EQ(Aes::Create(Bytes(16, 1))->rounds(), 10);
  EXPECT_EQ(Aes::Create(Bytes(24, 1))->rounds(), 12);
  EXPECT_EQ(Aes::Create(Bytes(32, 1))->rounds(), 14);
}

TEST(AesTest, RandomizedEncryptDecryptRoundTrip) {
  Rng rng(1234);
  for (size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.Next());
    auto aes = Aes::Create(key);
    ASSERT_TRUE(aes.ok());
    for (int i = 0; i < 200; ++i) {
      uint8_t pt[16], ct[16], back[16];
      for (auto& b : pt) b = static_cast<uint8_t>(rng.Next());
      aes->EncryptBlock(pt, ct);
      aes->DecryptBlock(ct, back);
      EXPECT_EQ(ByteSpan(pt, 16).size(), ByteSpan(back, 16).size());
      EXPECT_TRUE(std::equal(pt, pt + 16, back));
    }
  }
}

TEST(AesTest, EncryptionIsNotIdentity) {
  auto aes = Aes::Create(Bytes(16, 0x42));
  uint8_t pt[16] = {0};
  uint8_t ct[16];
  aes->EncryptBlock(pt, ct);
  EXPECT_FALSE(std::equal(pt, pt + 16, ct));
}

TEST(AesTest, DifferentKeysGiveDifferentCiphertexts) {
  auto a = Aes::Create(Bytes(16, 1));
  auto b = Aes::Create(Bytes(16, 2));
  uint8_t pt[16] = {9};
  uint8_t ca[16], cb[16];
  a->EncryptBlock(pt, ca);
  b->EncryptBlock(pt, cb);
  EXPECT_FALSE(std::equal(ca, ca + 16, cb));
}

TEST(AesTest, InPlaceAliasingWorks) {
  auto aes = Aes::Create(Bytes(16, 7));
  uint8_t buf[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  uint8_t expected[16];
  aes->EncryptBlock(buf, expected);
  aes->EncryptBlock(buf, buf);  // alias in == out
  EXPECT_TRUE(std::equal(buf, buf + 16, expected));
  aes->DecryptBlock(buf, buf);
  uint8_t original[16] = {1, 2,  3,  4,  5,  6,  7,  8,
                          9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_TRUE(std::equal(buf, buf + 16, original));
}

}  // namespace
}  // namespace essdds::crypto
