// Counting replacement for the global allocation functions. Every form of
// operator new funnels into count_new() and every operator delete into
// count_delete(), so allocations made anywhere in the program (STL
// containers, std::function, shared_ptr control blocks) are seen.
#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
std::int64_t g_live_bytes = 0;

// Each block carries its requested size in a header in front of the
// pointer handed out, so live bytes count what the program asked for;
// malloc_usable_size would vary with the allocator's free-list state.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* count_new(std::size_t size, std::size_t align = kHeader) {
    const std::size_t header = align > kHeader ? align : kHeader;
    void* base = std::aligned_alloc(header, (size + header + header - 1) / header * header);
    if (base == nullptr) throw std::bad_alloc{};
    ++g_allocs;
    g_live_bytes += static_cast<std::int64_t>(size);
    auto* user = static_cast<unsigned char*>(base) + header;
    std::memcpy(user - sizeof(std::size_t), &size, sizeof size);
    return user;
}

void count_delete(void* p, std::size_t align = kHeader) noexcept {
    if (p == nullptr) return;
    const std::size_t header = align > kHeader ? align : kHeader;
    auto* user = static_cast<unsigned char*>(p);
    std::size_t size = 0;
    std::memcpy(&size, user - sizeof(std::size_t), sizeof size);
    g_live_bytes -= static_cast<std::int64_t>(size);
    std::free(user - header);
}

} // namespace

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs; }
std::int64_t live_heap_bytes() { return g_live_bytes; }

} // namespace perfbench

void* operator new(std::size_t size) { return count_new(size); }
void* operator new[](std::size_t size) { return count_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return count_new(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return count_new(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return count_new(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return count_new(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { count_delete(p); }
void operator delete[](void* p) noexcept { count_delete(p); }
void operator delete(void* p, std::size_t) noexcept { count_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { count_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { count_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { count_delete(p); }
void operator delete(void* p, std::align_val_t a) noexcept {
    count_delete(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
    count_delete(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
    count_delete(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
    count_delete(p, static_cast<std::size_t>(a));
}
