"""Lock-annotation completeness (rule family 3).

The clang thread-safety analysis (ci.sh `annotations` flavor) only checks
fields that *carry* a TXREP_GUARDED_BY annotation — an unannotated field in a
mutex-owning class compiles silently everywhere, and on GCC builds even the
annotated ones are unchecked. This rule closes the gap structurally: in any
class that owns a `check::Mutex` / `check::SharedMutex`, every mutable data
member must either be annotated (TXREP_GUARDED_BY / TXREP_PT_GUARDED_BY) or
carry an explicit `// analyze: lock-free(<why>)` waiver.

Exempt by construction (no lock needed to touch them):
  - the lock primitives themselves (Mutex, SharedMutex, CondVar);
  - `std::atomic<...>` members;
  - const / constexpr members (immutable after construction);
  - static members (not instance state).
"""

from __future__ import annotations

from typing import List

from ..model import Diagnostic, TranslationUnit

LOCK_FREE_WAIVER = "analyze: lock-free("

_MUTEX_TYPES = ("check::Mutex", "Mutex", "check::SharedMutex", "SharedMutex")
_EXEMPT_TYPE_PARTS = ("Mutex", "CondVar", "std::atomic<", "LockOrder")


def _is_mutex_member(type_text: str) -> bool:
    t = type_text.replace("*", "").strip()
    return t in _MUTEX_TYPES


def _is_exempt_type(type_text: str) -> bool:
    t = type_text.strip()
    if t.startswith("std::atomic<") or t.replace("*", "").strip() == "std::atomic":
        return True
    base = t.replace("*", "").strip()
    tail = base.split("::")[-1].split("<")[0]
    return tail in ("Mutex", "SharedMutex", "CondVar", "MutexLock",
                    "WriterMutexLock", "ReaderMutexLock")


def run(tu: TranslationUnit, index, config) -> List[Diagnostic]:
    # Headers declare the classes; analyzing .cc files too would double-report
    # for classes fully defined in headers, so report per-TU and let the
    # driver de-duplicate identical (path, line, rule) triples.
    diags: List[Diagnostic] = []
    for cls in tu.classes:
        owns_mutex = any(_is_mutex_member(m.type_text) for m in cls.members
                         if "*" not in m.type_text)
        if not owns_mutex:
            continue
        for m in cls.members:
            if m.annotations:
                continue
            if m.is_const or m.is_static:
                continue
            if _is_exempt_type(m.type_text):
                continue
            if LOCK_FREE_WAIVER in tu.lexed.comment_near(m.line):
                continue
            diags.append(Diagnostic(
                tu.path, m.line, "lock-guardedby-missing",
                f"`{cls.name}::{m.name}` is unannotated in a mutex-owning "
                "class",
                hint="add TXREP_GUARDED_BY(mu)/TXREP_PT_GUARDED_BY(mu), make "
                     "it const, or waive with `// analyze: lock-free(<why>)`",
                context=cls.name))
    return diags
