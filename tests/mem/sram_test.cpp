#include <gtest/gtest.h>

#include "mem/sram.hpp"

namespace grow::mem {
namespace {

TEST(SramBuffer, CountsAccesses)
{
    SramBuffer b("buf", 1024);
    b.read(8);
    b.read(16);
    b.write(64);
    EXPECT_EQ(b.readAccesses(), 2u);
    EXPECT_EQ(b.writeAccesses(), 1u);
    EXPECT_EQ(b.accesses(), 3u);
    EXPECT_EQ(b.bytesRead(), 24u);
    EXPECT_EQ(b.bytesWritten(), 64u);
}

TEST(SramBuffer, AccessCountBatchesEqualAccesses)
{
    // read/write(bytes, n) records exactly what n single accesses do.
    SramBuffer batched("buf", 1024), single("buf", 1024);
    batched.read(32, 5);
    batched.write(16, 3);
    batched.read(8, 1);
    for (int i = 0; i < 5; ++i)
        single.read(32);
    for (int i = 0; i < 3; ++i)
        single.write(16);
    single.read(8);
    EXPECT_EQ(batched.readAccesses(), 6u);
    EXPECT_EQ(batched.writeAccesses(), 3u);
    EXPECT_EQ(batched.bytesRead(), 168u);
    EXPECT_EQ(batched.bytesWritten(), 48u);
    EXPECT_EQ(batched.readAccesses(), single.readAccesses());
    EXPECT_EQ(batched.writeAccesses(), single.writeAccesses());
    EXPECT_EQ(batched.bytesRead(), single.bytesRead());
    EXPECT_EQ(batched.bytesWritten(), single.bytesWritten());
}

TEST(SramBuffer, ClearStats)
{
    SramBuffer b("buf", 1024);
    b.read(8);
    b.clearStats();
    EXPECT_EQ(b.accesses(), 0u);
    EXPECT_EQ(b.bytesRead(), 0u);
}

TEST(SramBuffer, NameAndCapacity)
{
    SramBuffer b("iBufSparse", 12 * 1024);
    EXPECT_EQ(b.name(), "iBufSparse");
    EXPECT_EQ(b.capacity(), 12u * 1024);
}

TEST(SramBuffer, ZeroCapacityRejected)
{
    EXPECT_ANY_THROW(SramBuffer("x", 0));
}

} // namespace
} // namespace grow::mem
