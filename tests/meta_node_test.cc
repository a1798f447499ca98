// Metadata node codec and key tests.
#include <gtest/gtest.h>

#include "meta/node.h"

namespace blobseer::meta {
namespace {

TEST(NodeKeyTest, DhtKeyIsInjective) {
  NodeKey a{1, 2, Extent{0, 64}};
  NodeKey b{1, 2, Extent{64, 64}};
  NodeKey c{1, 3, Extent{0, 64}};
  NodeKey d{2, 2, Extent{0, 64}};
  EXPECT_NE(a.ToDhtKey(), b.ToDhtKey());
  EXPECT_NE(a.ToDhtKey(), c.ToDhtKey());
  EXPECT_NE(a.ToDhtKey(), d.ToDhtKey());
  EXPECT_EQ(a.ToDhtKey(), (NodeKey{1, 2, Extent{0, 64}}).ToDhtKey());
}

TEST(MetaNodeTest, InnerRoundTrip) {
  MetaNode n = MetaNode::Inner(5, kNoVersion);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_FALSE(decoded.is_leaf());
  EXPECT_EQ(decoded.left_version, 5u);
  EXPECT_EQ(decoded.right_version, kNoVersion);
}

TEST(MetaNodeTest, LeafRoundTrip) {
  MetaNode n = MetaNode::Leaf(
      {PageFragment{PageId{10, 20}, 100, 28, 4},
       PageFragment{PageId{11, 21}, 0, 100, 0}},
      7, 3);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_TRUE(decoded.is_leaf());
  EXPECT_EQ(decoded.prev_version, 7u);
  EXPECT_EQ(decoded.chain_len, 3u);
  ASSERT_EQ(decoded.fragments.size(), 2u);
  EXPECT_EQ(decoded.fragments[0], n.fragments[0]);
  EXPECT_EQ(decoded.fragments[1], n.fragments[1]);
}

TEST(MetaNodeTest, CorruptTypeRejected) {
  BinaryWriter w;
  w.PutU8(9);
  MetaNode n;
  BinaryReader r{Slice(w.buffer())};
  EXPECT_TRUE(n.DecodeFrom(&r).IsCorruption());
}

TEST(MetaNodeTest, TruncatedLeafRejected) {
  MetaNode n = MetaNode::Leaf({PageFragment{PageId{1, 1}, 0, 8, 0}},
                              kNoVersion, 1);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer().data(), w.buffer().size() - 3)};
  EXPECT_TRUE(decoded.DecodeFrom(&r).IsCorruption());
}

TEST(MetaNodeTest, ToStringIsInformative) {
  EXPECT_NE(MetaNode::Inner(1, 2).ToString().find("inner"),
            std::string::npos);
  EXPECT_NE(MetaNode::Leaf({}, kNoVersion, 1).ToString().find("leaf"),
            std::string::npos);
  EXPECT_NE((NodeKey{1, 2, Extent{0, 8}}).ToString().find("blob=1"),
            std::string::npos);
}

}  // namespace
}  // namespace blobseer::meta
