// Coder fast-path suite: the varint wire format (LEB128 + zigzag edges),
// round-trip properties for every built-in coder, the batch-amortized arena
// encode (exact precompute, shrink-less spans, shared chunks), zero-copy
// decode aliasing/lifetime (the ASan target), concurrent batch encode (the
// TSan target).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "beam/coders.hpp"
#include "beam/element.hpp"
#include "common/bytes.hpp"
#include "runtime/payload.hpp"

namespace dsps::beam {
namespace {

using runtime::Payload;
using runtime::PayloadArena;

// --- varint wire format ------------------------------------------------------

TEST(VarintWireTest, RoundTripsEdgeValues) {
  const std::vector<std::uint64_t> values = {
      0,
      1,
      127,
      128,
      300,
      (std::uint64_t{1} << 31),
      (std::uint64_t{1} << 31) - 1,
      (std::uint64_t{1} << 63),
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    Bytes out;
    BinaryWriter writer(out);
    writer.write_varint(v);
    EXPECT_EQ(out.size(), varint_size(v)) << v;
    BinaryReader reader(out);
    EXPECT_EQ(reader.read_varint(), v);
    EXPECT_FALSE(reader.failed());
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(VarintWireTest, ZigzagRoundTripsSignedEdges) {
  const std::vector<std::int64_t> values = {
      0, -1, 1, -64, 64, std::int64_t{1} << 31, -(std::int64_t{1} << 31),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
    Bytes out;
    BinaryWriter writer(out);
    writer.write_varint_i64(v);
    BinaryReader reader(out);
    EXPECT_EQ(reader.read_varint_i64(), v);
    EXPECT_FALSE(reader.failed());
  }
  // Small magnitudes stay short — the point of the zigzag mapping.
  EXPECT_EQ(varint_size(zigzag_encode(-1)), 1u);
  EXPECT_EQ(varint_size(zigzag_encode(63)), 1u);
}

TEST(VarintWireTest, TruncatedAndOverlongInputsFail) {
  // Truncated: a continuation bit with nothing after it.
  Bytes truncated = {0x80};
  BinaryReader r1(truncated);
  r1.read_varint();
  EXPECT_TRUE(r1.failed());
  // Overlong: more than 10 continuation bytes can't encode 64 bits.
  Bytes overlong(11, 0x80);
  BinaryReader r2(overlong);
  r2.read_varint();
  EXPECT_TRUE(r2.failed());
}

TEST(VarintWireTest, StringPrefixRoundTripsIncludingEmptyAndLarge) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{127}, std::size_t{128},
        std::size_t{1} << 20}) {
    const std::string s(n, 'x');
    Bytes out;
    BinaryWriter writer(out);
    writer.write_string(s);
    EXPECT_EQ(out.size(), varint_size(n) + n);
    BinaryReader reader(out);
    const std::string_view view = reader.read_view();
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(view.size(), n);
    EXPECT_EQ(view, s);
    // The view aliases the wire buffer — no copy.
    if (n > 0) {
      EXPECT_EQ(static_cast<const void*>(view.data()),
                static_cast<const void*>(out.data() + varint_size(n)));
    }
  }
}

TEST(VarintWireTest, ViewPastEndFails) {
  Bytes out;
  BinaryWriter writer(out);
  writer.write_varint(100);  // claims 100 bytes follow; none do
  BinaryReader reader(out);
  const std::string_view view = reader.read_view();
  EXPECT_TRUE(reader.failed());
  EXPECT_TRUE(view.empty());
}

TEST(FixedWriterTest, OverflowTripsFailureInsteadOfGrowing) {
  char buffer[4];
  BinaryWriter writer(buffer, sizeof buffer);
  writer.write_u64(42);  // 8 bytes into a 4-byte span
  EXPECT_TRUE(writer.failed());
  EXPECT_EQ(writer.bytes_written(), 0u);

  BinaryWriter exact(buffer, sizeof buffer);
  exact.write_u32(7);
  EXPECT_FALSE(exact.failed());
  EXPECT_EQ(exact.bytes_written(), 4u);
  exact.write_u8(1);  // one past the end
  EXPECT_TRUE(exact.failed());
}

// --- built-in coder round trips ----------------------------------------------

void expect_round_trip(const Coder& coder, const Value& value,
                       const auto& expect_equal) {
  Bytes out;
  BinaryWriter writer(out);
  coder.encode(value, writer);
  const std::size_t hint = coder.encoded_size_hint(value);
  EXPECT_EQ(hint, out.size()) << coder.name() << " hint is not exact";
  BinaryReader reader(out);
  const Value decoded = coder.decode(reader);
  EXPECT_FALSE(reader.failed()) << coder.name();
  EXPECT_TRUE(reader.exhausted()) << coder.name();
  expect_equal(decoded);
}

TEST(CoderRoundTripTest, EveryBuiltInRoundTripsWithExactHints) {
  expect_round_trip(StringUtf8Coder{}, Value{std::string("hello\tworld")},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<std::string>(), "hello\tworld");
                    });
  expect_round_trip(StringUtf8Coder{}, Value{std::string()},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<std::string>(), "");
                    });
  expect_round_trip(PayloadCoder{}, Value{Payload("payload bytes")},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<Payload>().view(), "payload bytes");
                    });
  for (const std::int64_t i :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1} << 31,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    expect_round_trip(VarIntCoder{}, Value{i}, [i](const Value& v) {
      EXPECT_EQ(v.get<std::int64_t>(), i);
    });
  }
  using Pair = KV<std::string, std::int64_t>;
  const KvCoder<std::string, std::int64_t> kv(
      CoderTraits<std::string>::of(), CoderTraits<std::int64_t>::of());
  expect_round_trip(kv, Value{Pair{"key", 99}}, [](const Value& v) {
    EXPECT_EQ(v.get<Pair>().key, "key");
    EXPECT_EQ(v.get<Pair>().value, 99);
  });
}

// --- windowed-value envelope -------------------------------------------------

Element sample_element() {
  Element element = make_element<std::string>("first\tsecond\tthird", 1234);
  element.windows = BoundedWindow{100, 200};
  element.pane = PaneInfo{.is_first = false, .is_last = true, .index = 5};
  return element;
}

TEST(WindowedValueCoderTest, RoundTripsEnvelopeWithNonGlobalWindow) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  const Element element = sample_element();
  const Bytes bytes = coder.encode(element);
  EXPECT_EQ(coder.encoded_size(element), bytes.size());

  const Element decoded = coder.decode(bytes);
  EXPECT_EQ(element_value<std::string>(decoded), "first\tsecond\tthird");
  EXPECT_EQ(decoded.timestamp, 1234);
  EXPECT_EQ(decoded.windows, element.windows);
  EXPECT_EQ(decoded.pane.is_first, false);
  EXPECT_EQ(decoded.pane.is_last, true);
  EXPECT_EQ(decoded.pane.index, 5);
}

// The envelope every serialized hop pays: timestamp (8 B, little-endian),
// window count (4 B, always 1), window start and end (8 B each), pane bits
// (1 B) and pane index (8 B) — 37 bytes before the value.
TEST(WindowedValueCoderTest, GlobalWindowEnvelopeBytesArePinned) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  PayloadArena arena;
  const Payload encoded =
      coder.encode(make_element<Payload>(Payload("hello"), 1234), arena);
  const std::vector<unsigned char> expected = {
      0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // timestamp 1234
      0x01, 0x00, 0x00, 0x00,                          // one window
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // start: min
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,  // end: max
      0x03,                                            // first | last
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // pane index 0
      0x05, 0x68, 0x65, 0x6c, 0x6c, 0x6f};             // "hello"
  const std::string_view view = encoded.view();
  EXPECT_EQ(std::vector<unsigned char>(view.begin(), view.end()), expected);
}

TEST(WindowedValueCoderTest, ArenaEncodeIsByteIdenticalToGrowable) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  const Element element = sample_element();
  const Bytes growable = coder.encode(element);
  PayloadArena arena;
  const Payload slab = coder.encode(element, arena);
  EXPECT_EQ(slab.view(),
            std::string_view(reinterpret_cast<const char*>(growable.data()),
                             growable.size()));
}

TEST(WindowedValueCoderTest, BatchEncodeSharesOneArenaChunk) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  PayloadArena arena;
  std::vector<Payload> wires;
  for (int i = 0; i < 50; ++i) {
    wires.push_back(
        coder.encode(make_element<std::string>("row-" + std::to_string(i)),
                     arena));
  }
  // 50 small envelopes fit comfortably in one 64 KiB chunk: the whole batch
  // shares a single refcounted allocation.
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  for (const auto& wire : wires) {
    EXPECT_TRUE(wire.shares_storage_with(wires.front()));
  }
  // And each one still decodes to its own element.
  for (int i = 0; i < 50; ++i) {
    const Element decoded = coder.decode(wires[static_cast<std::size_t>(i)]);
    EXPECT_EQ(element_value<std::string>(decoded),
              "row-" + std::to_string(i));
  }
}

TEST(PayloadArenaTest, CommitSpanReturnsSurplusToTheChunk) {
  PayloadArena arena(256);
  char* span = arena.reserve_span(100);
  ASSERT_NE(span, nullptr);
  std::memcpy(span, "short", 5);
  const Payload first = arena.commit_span(span, 5);
  EXPECT_EQ(first.view(), "short");
  // The 95 surplus bytes went back to the chunk: the next intern lands in
  // the same allocation instead of opening a new one.
  const Payload second = arena.intern(std::string(100, 'y'));
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  EXPECT_TRUE(second.shares_storage_with(first));
}

TEST(PayloadArenaTest, OversizedReservationGetsItsOwnChunk) {
  PayloadArena arena(128);
  char* span = arena.reserve_span(1000);
  ASSERT_NE(span, nullptr);
  std::memset(span, 'z', 1000);
  const Payload big = arena.commit_span(span, 1000);
  EXPECT_EQ(big.size(), 1000u);
  EXPECT_EQ(big.view(), std::string(1000, 'z'));
}

// --- zero-copy decode: aliasing and lifetime (the ASan target) ---------------

TEST(ZeroCopyDecodeTest, DecodedPayloadAliasesTheWireBytes) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  PayloadArena arena;
  const Element element = make_element<Payload>(Payload("aliased bytes"), 7);
  const Payload wire = coder.encode(element, arena);

  const Element decoded = coder.decode(wire);
  const Payload& value = element_value<Payload>(decoded);
  EXPECT_EQ(value.view(), "aliased bytes");
  EXPECT_TRUE(value.shares_storage_with(wire))
      << "Payload decode materialized a copy instead of aliasing the wire";
  // The decoded bytes literally live inside the wire buffer.
  EXPECT_GE(value.data(), wire.data());
  EXPECT_LE(value.data() + value.size(), wire.data() + wire.size());
}

TEST(ZeroCopyDecodeTest, DecodedViewOutlivesWireAndArena) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  Element decoded;
  {
    auto arena = std::make_unique<PayloadArena>();
    const Payload wire = coder.encode(
        make_element<Payload>(Payload("survives the arena"), 1), *arena);
    decoded = coder.decode(wire);
    // Both the wire payload and the arena die here; the decoded value's
    // refcount on the chunk must keep the bytes alive (ASan verifies).
  }
  EXPECT_EQ(element_value<Payload>(decoded).view(), "survives the arena");
}

TEST(ZeroCopyDecodeTest, ReaderWithoutOwnerFallsBackToOwningCopy) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  const Bytes bytes =
      coder.encode(make_element<Payload>(Payload("copied"), 1));
  // A plain Bytes reader has no refcounted owner, so the decode must copy —
  // the decoded value stays valid after the Bytes buffer dies.
  Element decoded;
  {
    const Bytes local = bytes;
    decoded = coder.decode(local);
  }
  EXPECT_EQ(element_value<Payload>(decoded).view(), "copied");
}

// --- concurrent batch encode (the TSan target) -------------------------------

TEST(ConcurrentEncodeTest, PerThreadArenasEncodeAndHandOffAcrossThreads) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Payload>> wires(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&coder, &wires, t] {
      // Single-writer arena per producer thread — the production structure.
      PayloadArena arena;
      wires[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        wires[static_cast<std::size_t>(t)].push_back(coder.encode(
            make_element<std::string>(std::to_string(t) + ":" +
                                      std::to_string(i)),
            arena));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Decode on the main thread: the refcounted chunks crossed threads.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const Element decoded =
          coder.decode(wires[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(i)]);
      EXPECT_EQ(element_value<std::string>(decoded),
                std::to_string(t) + ":" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace dsps::beam
