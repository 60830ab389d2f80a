// Negative fixture: this file's path contains "/src/core/pipeline",
// the builder path where pre-publish construction of a
// RenderedPatternSet is legitimate (the pipeline renders patterns
// into a fresh set before handing it to a snapshot).
#include <memory>
#include <utility>

#include "core/snapshot.h"

namespace nous {

std::shared_ptr<const RenderedPatternSet> BuildFreshSet() {
  auto fresh = std::make_shared<RenderedPatternSet>();
  fresh->patterns.clear();  // pre-publish mutation: allowed here
  return std::move(fresh);
}

}  // namespace nous
