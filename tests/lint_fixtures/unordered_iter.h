// Fixture: header declaring unordered members — unordered_iter.cpp
// includes this, so iteration there must resolve these names through the
// include closure (the pbft.h/pbft.cpp split in the real tree).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture {

using SeenSet = std::unordered_map<std::uint64_t, bool>;

struct Holder {
  std::unordered_map<std::uint64_t, int> pending_;
  SeenSet seen_;               // alias of an unordered type
  std::vector<int> ordered_;   // NOT unordered: iteration is fine

  int drain();
};

}  // namespace fixture
