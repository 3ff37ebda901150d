// Global shared-memory layout.
//
// The paper's DSM replicates the shared section at the same location on every node so pointers
// have the same meaning everywhere (§3). Here a GlobalLayout is built once, before the cluster
// starts, and shared (read-only) by all nodes: a GlobalAddr is an offset into each node's replica,
// which gives the same same-meaning-everywhere property.
//
// The layout builder also implements the paper's two granularity controls:
//  * padding — "a library routine that allocates a data structure in global memory and
//    automatically pads (when necessary)" so elements land on distinct pages;
//  * page groups — "two or more pages can be grouped so that a request for any page in the group
//    is a request for all of them", i.e. logical pages larger than the OS page.
#ifndef DFIL_DSM_LAYOUT_H_
#define DFIL_DSM_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace dfil::dsm {

inline constexpr uint16_t kNoGroup = 0;

class GlobalLayout {
 public:
  explicit GlobalLayout(size_t page_shift = 12) : page_shift_(page_shift) {}

  size_t page_shift() const { return page_shift_; }
  size_t page_size() const { return size_t{1} << page_shift_; }
  PageId PageOf(GlobalAddr addr) const { return static_cast<PageId>(addr >> page_shift_); }

  // --- Allocation (done once, host-side, before the cluster runs) ---

  // Allocates `bytes` with the given alignment; returns its global address.
  GlobalAddr Alloc(size_t bytes, size_t align = 8, const std::string& name = "");

  // Allocates page-aligned and padded to whole pages, so the object shares no page with others.
  GlobalAddr AllocPadded(size_t bytes, const std::string& name = "");

  // Allocates a rows x cols array of `elem` bytes each. When `pad_rows_to_pages` is set, each row
  // starts on a fresh page (the paper's padding routine, used to avoid false sharing between the
  // strips of different nodes).
  GlobalAddr AllocArray2D(size_t rows, size_t cols, size_t elem, bool pad_rows_to_pages,
                          const std::string& name = "");

  // Groups the pages [first, first+count) so that a request for any of them fetches all of them.
  // Returns the group id. Pages must not already belong to a group.
  uint16_t GroupPages(PageId first, size_t count);

  // Sets the initial owner of every page overlapping [addr, addr+bytes). Default owner is node 0.
  void SetInitialOwner(GlobalAddr addr, size_t bytes, NodeId owner);

  // Finalizes the layout: freezes the region size (rounded to pages) for `num_nodes` nodes, and
  // checks that the pages of each group share an initial owner (they always move together).
  void Seal(int num_nodes);
  bool sealed() const { return sealed_; }

  // --- Queries (used by DsmNode after Seal) ---
  size_t region_bytes() const { return region_bytes_; }
  size_t num_pages() const { return region_bytes_ >> page_shift_; }
  NodeId InitialOwner(PageId page) const { return initial_owner_.at(page); }
  uint16_t GroupOf(PageId page) const {
    return page < group_of_.size() ? group_of_[page] : kNoGroup;
  }
  // All pages of `page`'s group, in ascending order ({page} itself when ungrouped): the range
  // [first, last], which allocates nothing.
  std::ranges::iota_view<PageId, PageId> GroupPagesOf(PageId page) const {
    const uint16_t g = GroupOf(page);
    if (g == kNoGroup) {
      return std::views::iota(page, page + 1);
    }
    const auto [first, last] = groups_[g - 1];
    return std::views::iota(first, last + 1);
  }

  struct Allocation {
    std::string name;
    GlobalAddr addr;
    size_t bytes;
  };
  const std::vector<Allocation>& allocations() const { return allocations_; }

 private:
  size_t page_shift_;
  GlobalAddr next_ = 0;
  bool sealed_ = false;
  size_t region_bytes_ = 0;
  std::vector<NodeId> initial_owner_;
  std::vector<uint16_t> group_of_;
  std::vector<std::pair<PageId, PageId>> groups_;  // group id - 1 -> [first, last]
  std::vector<std::tuple<GlobalAddr, size_t, NodeId>> owner_ranges_;
  std::vector<Allocation> allocations_;
};

}  // namespace dfil::dsm

#endif  // DFIL_DSM_LAYOUT_H_
