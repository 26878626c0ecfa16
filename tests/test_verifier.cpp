/**
 * @file
 * Tests for the heap verifier: a healthy heap passes, and each
 * corruption class is detected.
 */

#include "heap/verifier.h"
#include "test_util.h"

namespace gcassert {
namespace {

class VerifierTest : public testutil::RuntimeTest {
  protected:
    VerifierTest() : verifier_(*runtime_) {}

    HeapVerifier verifier_;
};

TEST_F(VerifierTest, HealthyHeapHasNoIssues)
{
    Handle root = rootedNode(0);
    Object *a = node(1);
    root->setRef(0, a);
    a->setRef(0, root.get());
    runtime_->collect();
    EXPECT_TRUE(verifier_.verify().empty());
    verifier_.verifyOrPanic();
}

TEST_F(VerifierTest, HealthyAfterAssertionActivity)
{
    Handle owner = rootedNode(0, "owner");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->assertUnshared(ownee);
    runtime_->assertInstances(nodeType_, 100);
    runtime_->startRegion();
    node(2);
    runtime_->assertAllDead();
    runtime_->collect();
    EXPECT_TRUE(verifier_.verify().empty());
}

TEST_F(VerifierTest, DetectsStaleMarkBit)
{
    Handle root = rootedNode(0);
    root->setFlag(kMarkBit); // simulated corruption
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("stale mark bit"), std::string::npos);
    root->clearFlag(kMarkBit);
}

TEST_F(VerifierTest, DetectsStaleOwnedBit)
{
    Handle root = rootedNode(0);
    root->setFlag(kOwnedBit);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("owned bit"), std::string::npos);
    root->clearFlag(kOwnedBit);
}

TEST_F(VerifierTest, DetectsOwnerTagOnNonOwnee)
{
    Handle root = rootedNode(0);
    root->setOwnerTag(3);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("owner tag"), std::string::npos);
    root->setOwnerTag(0);
}

TEST_F(VerifierTest, AcceptsRegionTagOnlyOnFlushedRegionObjects)
{
    // A flushed object of a labeled region (kRegionBit|kDeadBit)
    // carries its label tag in the tag field until the next full GC
    // settles it; that is not a stray tag.
    Handle root = rootedNode(0);
    runtime_->startRegion(nullptr, "req-verify");
    Object *flushed = node(1);
    root->setRef(0, flushed);
    runtime_->assertAllDead();
    ASSERT_NE(flushed->ownerTag(), 0u);
    EXPECT_TRUE(verifier_.verify().empty());

    // Any other non-ownee with a tag still is one: a region object
    // still on its queue (no dead bit) and a plain assert-dead object.
    Handle dead = rootedNode(3);
    runtime_->assertDead(dead.get());
    dead->setOwnerTag(6);
    runtime_->startRegion();
    Object *queued = node(2);
    root->setRef(1, queued);
    queued->setOwnerTag(5);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 2u);
    for (const VerifierIssue &issue : issues)
        EXPECT_NE(issue.what.find("owner tag"), std::string::npos);
    queued->setOwnerTag(0);
    dead->setOwnerTag(0);
    runtime_->assertAllDead();

    // The collection reports the flushed object (it is reachable)
    // and clears its tag; the heap verifies clean afterwards.
    runtime_->collect();
    EXPECT_EQ(flushed->ownerTag(), 0u);
    EXPECT_TRUE(verifier_.verify().empty());
}

TEST_F(VerifierTest, DetectsOrphanWithoutDead)
{
    Handle root = rootedNode(0);
    root->setFlag(kOrphanBit);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("orphan bit"), std::string::npos);
    root->clearFlag(kOrphanBit);
}

TEST_F(VerifierTest, VerifyOrPanicThrowsOnCorruption)
{
    Handle root = rootedNode(0);
    root->setFlag(kMarkBit);
    EXPECT_THROW(verifier_.verifyOrPanic(), PanicError);
    root->clearFlag(kMarkBit);
}

TEST_F(VerifierTest, CleanAcrossWorkloadStyleChurn)
{
    // Exercise allocation, GC, assertions, regions, weak refs and
    // finalizers together, verifying after every collection.
    TypeId weak_type = runtime_->types()
                           .define("W")
                           .refs({"referent"})
                           .weak()
                           .build();
    Handle keeper(*runtime_, runtime_->allocArrayRaw(arrayType_, 64),
                  "keeper");
    for (int round = 0; round < 5; ++round) {
        for (uint32_t i = 0; i < 64; ++i) {
            Object *obj = node(i);
            if (i % 2 == 0)
                keeper->setRef(i, obj);
            if (i % 8 == 0) {
                Object *weak = runtime_->allocRaw(weak_type);
                weak->setRef(0, obj);
                keeper->setRef(i + 1, weak);
            }
            if (i % 16 == 0)
                runtime_->setFinalizer(node(100 + i), [](Object *) {});
        }
        runtime_->startRegion();
        for (int i = 0; i < 32; ++i)
            node(200 + i);
        runtime_->assertAllDead();
        runtime_->collect();
        EXPECT_TRUE(verifier_.verify().empty()) << "round " << round;
    }
}

} // namespace
} // namespace gcassert
