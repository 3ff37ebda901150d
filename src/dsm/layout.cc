#include "src/dsm/layout.h"

#include <algorithm>

namespace dfil::dsm {

GlobalAddr GlobalLayout::Alloc(size_t bytes, size_t align, const std::string& name) {
  DFIL_CHECK(!sealed_);
  DFIL_CHECK_GT(bytes, 0u);
  DFIL_CHECK((align & (align - 1)) == 0) << "alignment must be a power of two";
  next_ = (next_ + align - 1) & ~static_cast<GlobalAddr>(align - 1);
  GlobalAddr addr = next_;
  next_ += bytes;
  allocations_.push_back(Allocation{name, addr, bytes});
  return addr;
}

GlobalAddr GlobalLayout::AllocPadded(size_t bytes, const std::string& name) {
  DFIL_CHECK(!sealed_);
  const size_t ps = page_size();
  next_ = (next_ + ps - 1) & ~static_cast<GlobalAddr>(ps - 1);
  GlobalAddr addr = Alloc(bytes, 8, name);
  next_ = (next_ + ps - 1) & ~static_cast<GlobalAddr>(ps - 1);
  return addr;
}

GlobalAddr GlobalLayout::AllocArray2D(size_t rows, size_t cols, size_t elem,
                                      bool pad_rows_to_pages, const std::string& name) {
  DFIL_CHECK(!sealed_);
  if (!pad_rows_to_pages) {
    return AllocPadded(rows * cols * elem, name);
  }
  const size_t ps = page_size();
  const size_t row_bytes = ((cols * elem + ps - 1) / ps) * ps;
  next_ = (next_ + ps - 1) & ~static_cast<GlobalAddr>(ps - 1);
  GlobalAddr addr = next_;
  next_ += rows * row_bytes;
  allocations_.push_back(Allocation{name, addr, rows * row_bytes});
  return addr;
}

uint16_t GlobalLayout::GroupPages(PageId first, size_t count) {
  DFIL_CHECK(!sealed_);
  DFIL_CHECK_GE(count, 2u);
  const PageId last = first + static_cast<PageId>(count) - 1;
  if (group_of_.size() <= last) {
    group_of_.resize(last + 1, kNoGroup);
  }
  for (PageId p = first; p <= last; ++p) {
    DFIL_CHECK_EQ(group_of_[p], kNoGroup) << "page " << p << " already grouped";
  }
  groups_.emplace_back(first, last);
  const auto id = static_cast<uint16_t>(groups_.size());  // ids start at 1; 0 = ungrouped
  for (PageId p = first; p <= last; ++p) {
    group_of_[p] = id;
  }
  return id;
}

void GlobalLayout::SetInitialOwner(GlobalAddr addr, size_t bytes, NodeId owner) {
  DFIL_CHECK(!sealed_);
  owner_ranges_.emplace_back(addr, bytes, owner);
}

void GlobalLayout::Seal(int num_nodes) {
  DFIL_CHECK(!sealed_);
  DFIL_CHECK_GT(num_nodes, 0);
  const size_t ps = page_size();
  region_bytes_ = ((next_ + ps - 1) / ps) * ps;
  if (region_bytes_ == 0) {
    region_bytes_ = ps;  // keep a non-empty region so the page table is well-formed
  }
  initial_owner_.assign(num_pages(), 0);
  group_of_.resize(num_pages(), kNoGroup);
  for (const auto& [addr, bytes, owner] : owner_ranges_) {
    DFIL_CHECK_GE(owner, 0);
    DFIL_CHECK_LT(owner, num_nodes);
    const PageId first = PageOf(addr);
    const PageId last = PageOf(addr + bytes - 1);
    for (PageId p = first; p <= last; ++p) {
      initial_owner_[p] = owner;
    }
  }
  for (const auto& [first, last] : groups_) {
    for (PageId p = first + 1; p <= last && p < num_pages(); ++p) {
      DFIL_CHECK_EQ(initial_owner_[p], initial_owner_[first])
          << "grouped pages " << first << "-" << last << " must share an initial owner";
    }
  }
  sealed_ = true;
}

}  // namespace dfil::dsm
