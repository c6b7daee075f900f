// Unit and property tests for the OpenFlow match semantics: wildcards,
// prefix matching, overlap/subsumption, and layer classification — plus
// the footprint shapes the intent service's ConflictGraph feeds through
// overlaps()/subsumes() (classbench prefix-masked 5-tuples, tenant prefix
// partitions, wildcard/mask corners) — and the bytes of to_string() and the
// format helpers, and the identity of the typed rule key built on them.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "openflow/match.h"
#include "scheduler/reconciler.h"
#include "workload/classbench.h"

namespace tango::of {
namespace {

PacketHeader packet(std::uint32_t src, std::uint32_t dst, std::uint8_t proto = 6,
                    std::uint16_t dport = 80) {
  PacketHeader h;
  h.nw_src = src;
  h.nw_dst = dst;
  h.nw_proto = proto;
  h.tp_dst = dport;
  return h;
}

TEST(Match, AnyMatchesEverything) {
  const Match m = Match::any();
  EXPECT_TRUE(m.is_wildcard_all());
  EXPECT_TRUE(m.matches(packet(1, 2)));
  EXPECT_TRUE(m.matches(PacketHeader{}));
  EXPECT_EQ(m.layer(), MatchLayer::kNone);
}

TEST(Match, ExactFromMatchesOnlyThatPacket) {
  const auto p = packet(0x0a000001, 0x0a000002, 17, 53);
  const Match m = Match::exact_from(p);
  EXPECT_TRUE(m.matches(p));
  auto q = p;
  q.tp_dst = 54;
  EXPECT_FALSE(m.matches(q));
  q = p;
  q.nw_src ^= 1;
  EXPECT_FALSE(m.matches(q));
}

TEST(Match, PrefixMatching) {
  Match m;
  m.set_nw_src_prefix(0x0a000000, 8);  // 10/8
  EXPECT_EQ(m.nw_src_prefix_len(), 8);
  EXPECT_TRUE(m.matches(packet(0x0a123456, 0)));
  EXPECT_FALSE(m.matches(packet(0x0b000000, 0)));
}

TEST(Match, PrefixLenZeroIsWildcard) {
  Match m;
  m.set_nw_src_prefix(0x0a000000, 0);
  EXPECT_EQ(m.nw_src_prefix_len(), 0);
  EXPECT_TRUE(m.matches(packet(0xffffffff, 0)));
}

TEST(Match, PrefixTruncatesHostBits) {
  Match m;
  m.set_nw_dst_prefix(0x0a0000ff, 24);
  EXPECT_EQ(m.nw_dst, 0x0a000000u);
}

TEST(Match, ExactFieldSetters) {
  Match m;
  m.with_in_port(3).with_dl_type(0x0800).with_nw_proto(6).with_tp_dst(443);
  auto p = packet(1, 2, 6, 443);
  p.in_port = 3;
  EXPECT_TRUE(m.matches(p));
  p.in_port = 4;
  EXPECT_FALSE(m.matches(p));
}

TEST(Match, MacMatching) {
  const MacAddr mac{1, 2, 3, 4, 5, 6};
  Match m;
  m.with_dl_src(mac);
  PacketHeader p;
  p.dl_src = mac;
  EXPECT_TRUE(m.matches(p));
  p.dl_src[5] = 7;
  EXPECT_FALSE(m.matches(p));
}

TEST(Match, OverlapNestedPrefixes) {
  Match a, b;
  a.set_nw_src_prefix(0x0a000000, 8);
  b.set_nw_src_prefix(0x0a010000, 16);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_TRUE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
}

TEST(Match, DisjointPrefixesDoNotOverlap) {
  Match a, b;
  a.set_nw_src_prefix(0x0a000000, 16);
  b.set_nw_src_prefix(0x0a010000, 16);
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(a.subsumes(b));
}

TEST(Match, PartialOverlapNeitherSubsumes) {
  Match a, b;
  a.set_nw_src_prefix(0x0a000000, 8);   // src 10/8, dst any
  b.set_nw_dst_prefix(0x0b000000, 8);   // src any, dst 11/8
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
}

TEST(Match, ExactFieldsBlockOverlap) {
  Match a, b;
  a.with_tp_dst(80);
  b.with_tp_dst(443);
  EXPECT_FALSE(a.overlaps(b));
}

TEST(Match, AnySubsumesAll) {
  const Match any = Match::any();
  Match specific;
  specific.with_tp_dst(80).with_nw_proto(6);
  specific.set_nw_src_prefix(0x0a000000, 24);
  EXPECT_TRUE(any.subsumes(specific));
  EXPECT_FALSE(specific.subsumes(any));
  EXPECT_TRUE(any.subsumes(any));
}

TEST(Match, LayerClassification) {
  Match l2;
  l2.with_dl_src({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(l2.layer(), MatchLayer::kL2Only);

  Match l3;
  l3.set_nw_src_prefix(0x0a000000, 32);
  EXPECT_EQ(l3.layer(), MatchLayer::kL3Only);

  Match both = l2;
  both.set_nw_dst_prefix(0x0a000000, 24);
  EXPECT_EQ(both.layer(), MatchLayer::kL2AndL3);

  // dl_type alone is neither an L2 nor L3 constraint for width purposes.
  Match typed;
  typed.with_dl_type(0x0800);
  EXPECT_EQ(typed.layer(), MatchLayer::kNone);
}

TEST(Match, ToStringListsConstrainedFields) {
  Match m;
  m.with_tp_dst(80);
  m.set_nw_src_prefix(0x0a000001, 32);
  const auto s = m.to_string();
  EXPECT_NE(s.find("tp_dst=80"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1/32"), std::string::npos);
}

TEST(FormatHelpers, Ipv4AndMac) {
  EXPECT_EQ(format_ipv4(0x0a000001), "10.0.0.1");
  EXPECT_EQ(format_ipv4(0xffffffff), "255.255.255.255");
  EXPECT_EQ(format_mac({0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}), "de:ad:be:ef:00:01");
}

TEST(PacketHeaderHashTest, EqualHeadersEqualHashes) {
  const auto p = packet(1, 2);
  const auto q = packet(1, 2);
  EXPECT_EQ(PacketHeaderHash{}(p), PacketHeaderHash{}(q));
  const auto r = packet(1, 3);
  EXPECT_NE(PacketHeaderHash{}(p), PacketHeaderHash{}(r));
}

// ---------------------------------------------------------------------------
// Property sweep: random match pairs must satisfy the logical relationships
// between matches(), overlaps(), and subsumes().
// ---------------------------------------------------------------------------

Match random_match(Rng& rng) {
  Match m;
  if (rng.chance(0.6)) {
    m.set_nw_src_prefix(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffff)) << 16,
                        static_cast<int>(rng.uniform_int(0, 32)));
  }
  if (rng.chance(0.6)) {
    m.set_nw_dst_prefix(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffff)) << 16,
                        static_cast<int>(rng.uniform_int(0, 32)));
  }
  if (rng.chance(0.3)) m.with_nw_proto(rng.chance(0.5) ? 6 : 17);
  if (rng.chance(0.3)) m.with_tp_dst(static_cast<std::uint16_t>(rng.uniform_int(1, 4)));
  if (rng.chance(0.2)) m.with_in_port(static_cast<std::uint16_t>(rng.uniform_int(1, 3)));
  return m;
}

PacketHeader random_packet(Rng& rng) {
  PacketHeader p;
  p.nw_src = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffff)) << 16;
  p.nw_dst = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffff)) << 16;
  p.nw_proto = rng.chance(0.5) ? 6 : 17;
  p.tp_dst = static_cast<std::uint16_t>(rng.uniform_int(1, 4));
  p.in_port = static_cast<std::uint16_t>(rng.uniform_int(1, 3));
  return p;
}

class MatchProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchProperties, SubsumptionImpliesContainment) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    const Match a = random_match(rng);
    const Match b = random_match(rng);
    // Reflexivity.
    EXPECT_TRUE(a.subsumes(a));
    EXPECT_TRUE(a.overlaps(a));
    // Symmetry of overlap.
    EXPECT_EQ(a.overlaps(b), b.overlaps(a));
    // Subsumption implies overlap.
    if (a.subsumes(b)) EXPECT_TRUE(a.overlaps(b));
    for (int pi = 0; pi < 20; ++pi) {
      const auto p = random_packet(rng);
      // Containment: b matches p and a subsumes b => a matches p.
      if (a.subsumes(b) && b.matches(p)) EXPECT_TRUE(a.matches(p));
      // Witness: a packet matching both is an overlap witness.
      if (a.matches(p) && b.matches(p)) EXPECT_TRUE(a.overlaps(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Footprint shapes (what the ConflictGraph feeds through overlaps/subsumes)
// ---------------------------------------------------------------------------

// The intent service admits two intents concurrently iff no pair of their
// matches on a shared switch overlaps. Its safety argument leans on two
// algebraic facts checked here over realistic rule shapes:
//   (1) subsumption implies overlap (a rule a tenant could sweep or shadow
//       is never invisible to the conflict relation), and
//   (2) overlap is symmetric and reflexive (admission order cannot change
//       the verdict).
TEST(MatchFootprint, ClassbenchOverlapSubsumeConsistency) {
  workload::ClassbenchProfile profile;
  profile.name = "footprint";
  profile.n_rules = 120;
  profile.seed = 42;
  const auto rules = workload::generate_classbench(profile);
  ASSERT_EQ(rules.size(), 120u);

  std::size_t overlapping_pairs = 0;
  std::size_t subsuming_pairs = 0;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Match& a = rules[i].match;
    EXPECT_TRUE(a.overlaps(a));
    EXPECT_TRUE(a.subsumes(a));
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      const Match& b = rules[j].match;
      EXPECT_EQ(a.overlaps(b), b.overlaps(a));
      if (a.subsumes(b)) {
        ++subsuming_pairs;
        EXPECT_TRUE(a.overlaps(b));
      }
      if (b.subsumes(a)) {
        EXPECT_TRUE(b.overlaps(a));
      }
      if (a.overlaps(b)) ++overlapping_pairs;
    }
  }
  // The nested-prefix-chain generator must actually produce both relations,
  // or this test exercises nothing.
  EXPECT_GT(subsuming_pairs, 0u);
  EXPECT_GT(overlapping_pairs, subsuming_pairs);
}

// The service's multi-tenant carve-up: each tenant owns a /16, rules are
// /32s inside it. Cross-tenant footprints must never conflict; a tenant's
// own /16 aggregate covers (subsumes) all of its /32s.
TEST(MatchFootprint, TenantPrefixPartition) {
  const auto tenant32 = [](std::uint32_t t, std::uint32_t i) {
    Match m;
    m.with_dl_type(0x0800);
    m.set_nw_dst_prefix((10u << 24) | ((t + 1) << 16) | i, 32);
    return m;
  };
  const auto tenant16 = [](std::uint32_t t) {
    Match m;
    m.with_dl_type(0x0800);
    m.set_nw_dst_prefix((10u << 24) | ((t + 1) << 16), 16);
    return m;
  };
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint32_t u = 0; u < 4; ++u) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(tenant32(t, i).overlaps(tenant32(u, i + 100)), false);
        EXPECT_EQ(tenant16(t).overlaps(tenant32(u, i)), t == u);
        EXPECT_EQ(tenant16(t).subsumes(tenant32(u, i)), t == u);
      }
      EXPECT_EQ(tenant16(t).overlaps(tenant16(u)), t == u);
    }
  }
}

TEST(MatchFootprint, WildcardAndMaskCorners) {
  const Match any = Match::any();
  Match dst32;
  dst32.with_dl_type(0x0800);
  dst32.set_nw_dst_prefix(0x0a010203, 32);

  // The universal wildcard overlaps and subsumes everything.
  EXPECT_TRUE(any.overlaps(dst32));
  EXPECT_TRUE(any.subsumes(dst32));
  EXPECT_FALSE(dst32.subsumes(any));

  // A /0 prefix is the same as not constraining the field at all.
  Match zero_len;
  zero_len.set_nw_dst_prefix(0xdeadbeef, 0);
  EXPECT_TRUE(zero_len.overlaps(dst32));
  EXPECT_TRUE(zero_len.subsumes(dst32));

  // A /31 covers exactly its two /32s and nothing else.
  Match p31;
  p31.set_nw_dst_prefix(0x0a010202, 31);
  Match in0, in1, out;
  in0.set_nw_dst_prefix(0x0a010202, 32);
  in1.set_nw_dst_prefix(0x0a010203, 32);
  out.set_nw_dst_prefix(0x0a010204, 32);
  EXPECT_TRUE(p31.subsumes(in0));
  EXPECT_TRUE(p31.subsumes(in1));
  EXPECT_TRUE(p31.overlaps(in1));
  EXPECT_FALSE(p31.overlaps(out));

  // A disagreeing exact field (dl_type) kills overlap even when the
  // prefixes coincide.
  Match v6 = dst32;
  v6.with_dl_type(0x86dd);
  EXPECT_FALSE(v6.overlaps(dst32));

  // Orthogonal constraints (dst prefix vs transport port) overlap: packets
  // satisfying both exist.
  Match port_only;
  port_only.with_tp_dst(443);
  EXPECT_TRUE(port_only.overlaps(dst32));
  EXPECT_FALSE(port_only.subsumes(dst32));
  EXPECT_FALSE(dst32.subsumes(port_only));

  // Same-field prefixes at different lengths: the shorter subsumes the
  // longer iff the longer sits inside it.
  Match p8, p24_in, p24_out;
  p8.set_nw_dst_prefix(0x0a000000, 8);
  p24_in.set_nw_dst_prefix(0x0a010200, 24);
  p24_out.set_nw_dst_prefix(0x0b010200, 24);
  EXPECT_TRUE(p8.subsumes(p24_in));
  EXPECT_TRUE(p8.overlaps(p24_in));
  EXPECT_FALSE(p8.overlaps(p24_out));
  EXPECT_FALSE(p24_in.subsumes(p8));
}

// ---------------------------------------------------------------------------
// Key bytes: to_string() and the format helpers against the std::to_string /
// snprintf formatting they replaced, kept here as the pin.
// ---------------------------------------------------------------------------

std::string legacy_format_ipv4(std::uint32_t addr) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

std::string legacy_format_mac(const MacAddr& mac) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0],
                mac[1], mac[2], mac[3], mac[4], mac[5]);
  return buf;
}

std::string legacy_to_string(const Match& m) {
  std::string out = "{";
  if (!m.field_wildcarded(kWildcardInPort)) out += "in_port=" + std::to_string(m.in_port) + ",";
  if (!m.field_wildcarded(kWildcardDlSrc)) out += "dl_src=" + legacy_format_mac(m.dl_src) + ",";
  if (!m.field_wildcarded(kWildcardDlDst)) out += "dl_dst=" + legacy_format_mac(m.dl_dst) + ",";
  if (!m.field_wildcarded(kWildcardDlVlan)) out += "vlan=" + std::to_string(m.dl_vlan) + ",";
  if (!m.field_wildcarded(kWildcardDlType)) out += "dl_type=" + std::to_string(m.dl_type) + ",";
  if (m.nw_src_prefix_len() > 0) {
    out += "nw_src=" + legacy_format_ipv4(m.nw_src) + "/" +
           std::to_string(m.nw_src_prefix_len()) + ",";
  }
  if (m.nw_dst_prefix_len() > 0) {
    out += "nw_dst=" + legacy_format_ipv4(m.nw_dst) + "/" +
           std::to_string(m.nw_dst_prefix_len()) + ",";
  }
  if (!m.field_wildcarded(kWildcardNwProto)) out += "proto=" + std::to_string(m.nw_proto) + ",";
  if (!m.field_wildcarded(kWildcardTpSrc)) out += "tp_src=" + std::to_string(m.tp_src) + ",";
  if (!m.field_wildcarded(kWildcardTpDst)) out += "tp_dst=" + std::to_string(m.tp_dst) + ",";
  if (out.size() > 1 && out.back() == ',') out.pop_back();
  out += "}";
  return out;
}

/// The exact-field wildcard bits to_string() reads.
constexpr std::uint32_t kPrintedBits[] = {
    kWildcardInPort, kWildcardDlSrc,   kWildcardDlDst, kWildcardDlVlan,
    kWildcardDlType, kWildcardNwProto, kWildcardTpSrc, kWildcardTpDst};

constexpr std::uint32_t kBoundaryValues[] = {0, 9, 10, 99, 100, 255, 65535};

/// Every field set to `v` (truncated to the field's width), MAC bytes too.
Match all_fields(std::uint32_t v) {
  Match m;
  m.in_port = static_cast<std::uint16_t>(v);
  m.dl_src.fill(static_cast<std::uint8_t>(v));
  m.dl_dst.fill(static_cast<std::uint8_t>(v >> 4));
  m.dl_vlan = static_cast<std::uint16_t>(v);
  m.dl_vlan_pcp = static_cast<std::uint8_t>(v);
  m.dl_type = static_cast<std::uint16_t>(v);
  m.nw_tos = static_cast<std::uint8_t>(v);
  m.nw_proto = static_cast<std::uint8_t>(v);
  m.nw_src = v * 0x01010101u;
  m.nw_dst = v;
  m.tp_src = static_cast<std::uint16_t>(v);
  m.tp_dst = static_cast<std::uint16_t>(v);
  return m;
}

Match random_any_match(Rng& rng) {
  Match m;
  m.wildcards = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
  m.in_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  for (auto& b : m.dl_src) b = static_cast<std::uint8_t>(rng.index(256));
  for (auto& b : m.dl_dst) b = static_cast<std::uint8_t>(rng.index(256));
  m.dl_vlan = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  m.dl_vlan_pcp = static_cast<std::uint8_t>(rng.index(256));
  m.dl_type = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  m.nw_tos = static_cast<std::uint8_t>(rng.index(256));
  m.nw_proto = static_cast<std::uint8_t>(rng.index(256));
  m.nw_src = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
  m.nw_dst = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
  m.tp_src = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  m.tp_dst = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  return m;
}

TEST(MatchFormat, EveryPrintedWildcardCombinationAndBoundaryValue) {
  Rng rng(5);
  for (std::uint32_t combo = 0; combo < (1u << std::size(kPrintedBits)); ++combo) {
    for (const std::uint32_t v : kBoundaryValues) {
      Match m = all_fields(v);
      m.wildcards = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
      for (std::size_t b = 0; b < std::size(kPrintedBits); ++b) {
        if ((combo >> b) & 1) {
          m.wildcards |= kPrintedBits[b];
        } else {
          m.wildcards &= ~kPrintedBits[b];
        }
      }
      ASSERT_EQ(m.to_string(), legacy_to_string(m))
          << "wildcards " << m.wildcards << " value " << v;
    }
  }
}

TEST(MatchFormat, LongestTextIsEveryFieldAtItsWidest) {
  Match m = all_fields(65535);
  m.wildcards = 0;
  m.dl_src.fill(0xff);
  m.dl_dst.fill(0xff);
  m.set_nw_src_prefix(0xffffffffu, 32);
  m.set_nw_dst_prefix(0xffffffffu, 32);
  EXPECT_EQ(m.to_string(), legacy_to_string(m));
  EXPECT_EQ(m.to_string().size(), 178u);
}

TEST(MatchFormat, EveryPrefixLengthAndWildcardCount) {
  Rng rng(6);
  for (std::uint32_t src_count = 0; src_count < 64; ++src_count) {
    for (std::uint32_t dst_count = 0; dst_count < 64; ++dst_count) {
      Match m = all_fields(kBoundaryValues[rng.index(std::size(kBoundaryValues))]);
      m.nw_src = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
      m.wildcards = (src_count << kWildcardNwSrcShift) |
                    (dst_count << kWildcardNwDstShift) | kWildcardInPort;
      ASSERT_EQ(m.to_string(), legacy_to_string(m))
          << "counts " << src_count << "/" << dst_count;
    }
  }
}

TEST(MatchFormat, Ipv4AndMacHelpersAreByteIdentical) {
  constexpr std::uint32_t kOctets[] = {0, 9, 10, 99, 100, 255};
  for (const auto a : kOctets) {
    for (const auto b : kOctets) {
      for (const auto c : kOctets) {
        for (const auto d : kOctets) {
          const std::uint32_t addr = (a << 24) | (b << 16) | (c << 8) | d;
          ASSERT_EQ(format_ipv4(addr), legacy_format_ipv4(addr)) << addr;
        }
      }
    }
  }
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    for (std::size_t pos = 0; pos < 6; ++pos) {
      MacAddr mac{0x0a, 0xbc, 0xde, 0xf0, 0x19, 0xa2};
      mac[pos] = static_cast<std::uint8_t>(byte);
      ASSERT_EQ(format_mac(mac), legacy_format_mac(mac)) << byte << "@" << pos;
    }
  }
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const Match m = random_any_match(rng);
    ASSERT_EQ(format_ipv4(m.nw_src), legacy_format_ipv4(m.nw_src));
    ASSERT_EQ(format_mac(m.dl_src), legacy_format_mac(m.dl_src));
    ASSERT_EQ(m.to_string(), legacy_to_string(m));
  }
}

// ---------------------------------------------------------------------------
// Key identity: sched::RuleKey equals exactly when rule_key strings do.
// ---------------------------------------------------------------------------

/// A small-domain match, so random pairs often share a key.
Match small_match(Rng& rng) {
  Match m;
  m.wildcards = kWildcardAll;
  for (const std::uint32_t bit : kPrintedBits) {
    if (rng.chance(0.3)) m.wildcards &= ~bit;
  }
  if (rng.chance(0.3)) m.wildcards &= ~kWildcardNwTos;
  if (rng.chance(0.3)) m.wildcards &= ~kWildcardDlVlanPcp;
  m.in_port = static_cast<std::uint16_t>(rng.index(2));
  m.dl_src[5] = static_cast<std::uint8_t>(rng.index(2));
  m.dl_dst[0] = static_cast<std::uint8_t>(rng.index(2));
  m.dl_vlan = static_cast<std::uint16_t>(rng.index(2));
  m.dl_vlan_pcp = static_cast<std::uint8_t>(rng.index(2));
  m.dl_type = static_cast<std::uint16_t>(rng.index(2));
  m.nw_tos = static_cast<std::uint8_t>(rng.index(2));
  m.nw_proto = static_cast<std::uint8_t>(rng.index(2));
  m.tp_src = static_cast<std::uint16_t>(rng.index(2));
  m.tp_dst = static_cast<std::uint16_t>(rng.index(2));
  const auto prefix = [&rng]() -> std::uint32_t {
    // Wildcard counts: prefixes /32, /31, /0, and counts above 32.
    constexpr std::uint32_t kCounts[] = {0, 1, 32, 33, 63};
    return kCounts[rng.index(std::size(kCounts))];
  };
  m.wildcards = (m.wildcards & ~(kWildcardNwSrcMask | kWildcardNwDstMask)) |
                (prefix() << kWildcardNwSrcShift) | (prefix() << kWildcardNwDstShift);
  m.nw_src = static_cast<std::uint32_t>(rng.index(2));  // host bit
  m.nw_dst = static_cast<std::uint32_t>(rng.index(2)) << 31;
  return m;
}

/// `m` with one thing changed: something the key ignores (nw_tos,
/// dl_vlan_pcp, their wildcard bits, a wildcarded value, a count above 32)
/// or something it keeps.
Match perturb(Match m, Rng& rng) {
  switch (rng.index(8)) {
    case 0: m.nw_tos ^= 1; break;
    case 1: m.dl_vlan_pcp ^= 1; break;
    case 2: m.wildcards ^= rng.chance(0.5) ? kWildcardNwTos : kWildcardDlVlanPcp; break;
    case 3: m.in_port ^= 1; m.tp_dst ^= 1; break;
    case 4: m.wildcards ^= kPrintedBits[rng.index(std::size(kPrintedBits))]; break;
    case 5: m.nw_src ^= 1; break;
    case 6: m.wildcards ^= 1u << 30; break;
    default: m.dl_src[5] ^= 1; m.dl_type ^= 1; break;
  }
  return m;
}

TEST(RuleKeyTest, EqualWithEqualHashesExactlyWhenKeyStringsAre) {
  Rng rng(8);
  const sched::RuleKeyHash hash;
  std::size_t equal = 0;
  std::size_t unequal = 0;
  for (int i = 0; i < 200000; ++i) {
    const Match a = small_match(rng);
    const Match b = rng.chance(0.7) ? perturb(a, rng) : small_match(rng);
    const auto pa = static_cast<std::uint16_t>(rng.chance(0.9) ? 100 : 1000);
    const auto pb = static_cast<std::uint16_t>(rng.chance(0.9) ? pa : 10);
    const sched::RuleKey ka(a, pa);
    const sched::RuleKey kb(b, pb);
    const bool same = sched::rule_key(a, pa) == sched::rule_key(b, pb);
    ASSERT_EQ(ka == kb, same) << sched::rule_key(a, pa) << " vs "
                              << sched::rule_key(b, pb);
    if (same) {
      ASSERT_EQ(hash(ka), hash(kb)) << sched::rule_key(a, pa);
      ++equal;
    } else {
      ++unequal;
    }
    ASSERT_EQ(sched::rule_key(ka.match(), ka.priority()), sched::rule_key(a, pa));
  }
  EXPECT_GT(equal, 20000u);
  EXPECT_GT(unequal, 20000u);
}

}  // namespace
}  // namespace tango::of
