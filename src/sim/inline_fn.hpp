// Move-only callable with inline storage and no heap fallback.
//
// The simulator schedules millions of closures per second (kernel events,
// memory-access completions). `std::function` keeps only 16 bytes inline
// in libstdc++ and heap-allocates anything larger, which made scheduling
// the simulator's dominant source of allocations. `InlineFn<Sig, N>` stores
// any callable of up to N bytes in place; a larger capture is a compile
// error (static_assert), never a silent allocation. Callers that hit the
// limit capture less: a pointer or an index into state the component
// already owns, instead of a copy of it.
//
// Moving an InlineFn relocates the callable (move-construct + destroy);
// trivially copyable captures, the common case, are copied as raw bytes.
// Copying is not supported: the simulator hands each closure to exactly one
// owner.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace pap::sim {

template <typename Sig, std::size_t Capacity>
class InlineFn;

namespace detail {
template <typename T>
struct IsStdFunction : std::false_type {};
template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type {};
/// Callables that can be null: wrapping a null one yields an empty InlineFn.
template <typename D>
constexpr bool kNullable = std::is_pointer_v<D> ||
                           std::is_member_pointer_v<D> ||
                           IsStdFunction<D>::value;
}  // namespace detail

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kAlign = alignof(void*);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  /// Wrap `f`. A null function pointer or an empty std::function yields an
  /// empty InlineFn, as std::function would.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT: implicit, like std::function
    emplace<D>(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { take(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  /// Replace the callable, constructing `f` directly in this storage.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn& operator=(F&& f) {
    reset();
    emplace<D>(std::forward<F>(f));
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineFn& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }

  /// Call the stored callable. Calling an empty InlineFn throws
  /// std::bad_function_call, as std::function does.
  R operator()(Args... args) const {
    if (ops_ == nullptr) throw std::bad_function_call();
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct into `dst` and destroy `src`; null = copy the bytes.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when the callable is trivially destructible.
    void (*destroy)(void* self) noexcept;
    std::size_t size;
  };

  template <typename D>
  static R invoke_as(void* self, Args&&... args) {
    return std::invoke(*static_cast<D*>(self), std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_as(void* dst, void* src) noexcept {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_as(void* self) noexcept {
    static_cast<D*>(self)->~D();
  }

  template <typename D>
  static constexpr Ops kOps{
      &invoke_as<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &relocate_as<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_as<D>,
      sizeof(D)};

  /// Construct `f` into the (empty) storage.
  template <typename D, typename F>
  void emplace(F&& f) {
    static_assert(sizeof(D) <= Capacity,
                  "capture exceeds the InlineFn capacity: capture a pointer "
                  "or an index into state the component already owns");
    static_assert(alignof(D) <= kAlign, "over-aligned capture");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "captures must be nothrow-movable");
    if constexpr (detail::kNullable<D>) {
      if (!static_cast<bool>(f)) return;
    }
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  void take(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, ops_->size);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  // The callable lives here; `mutable` because calling a const InlineFn
  // may mutate the callable's state, as with std::function.
  alignas(kAlign) mutable unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace pap::sim
