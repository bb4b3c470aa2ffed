"""Command-line interface: ``repro-rbac`` / ``python -m repro``.

Subcommands:

* ``show-policy FILE``          — parse a policy document and summarize it.
* ``check-order FILE P Q``     — decide ``P Ã Q`` and print the derivation.
* ``weaker FILE P``             — enumerate weaker privileges (bounded).
* ``check-refinement PHI PSI``  — Definition 6 check with witness.
* ``check-admin-refinement PHI PSI`` — bounded Definition 7 check.
* ``run-queue FILE QUEUE.json`` — execute a command queue (Definition 5).
* ``analyze FILE SUBJ PRIV``    — bounded safety query with witness
  (the compiled undo-log explorer).
* ``lint [FILE]``               — static policy analysis: structured
  findings with witnesses and suggested repairs (``--fixture`` lints a
  built-in policy, ``--severity`` gates the exit code for CI).
* ``export-dot FILE``           — Graphviz export (the paper's figures).
* ``figures``                   — print the paper's Figures 1–3 as documents.
* ``query SQL...``              — run SQL against the guarded hospital DBMS
  (``--backend memory|sqlite|kvlog`` selects the storage engine).
* ``serve-bench [FILE]``        — drive the asyncio policy-decision
  point through a concurrent read/write workload and print its metrics
  surface: decision counters, cache hit ratio, batch gauges and
  p50/p99 latency histograms (``--fixture`` serves a built-in policy,
  ``--rate-limit CAPACITY:RATE`` fronts it with the token-bucket
  limiter).

Policy files use the document format of :mod:`repro.core.grammar`;
privileges are written as e.g. ``grant(bob, staff)`` or
``grant(staff, grant(bob, dbusr2))``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.admin_refinement import check_admin_refinement
from .core.commands import Mode, run_queue
from .core.grammar import (
    Vocabulary,
    format_policy_source,
    format_privilege,
    parse_policy_source,
    parse_privilege,
)
from .core.ordering import explain_weaker
from .core.policy import Policy
from .core.refinement import refinement_counterexample
from .core.serialization import queue_from_json
from .core.weaker import enumerate_weaker
from .errors import ReproError
from .graph import policy_to_dot


def _load_policy(path: str) -> Policy:
    return parse_policy_source(Path(path).read_text())


def _cmd_show_policy(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    print(policy)
    print(f"longest role chain: {policy.longest_role_chain()}")
    print(f"administrative: {not policy.is_non_administrative()}")
    if args.full:
        print(format_policy_source(policy), end="")
    return 0


def _cmd_check_order(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    vocabulary = Vocabulary.of_policy(policy)
    stronger = parse_privilege(args.stronger, vocabulary)
    weaker = parse_privilege(args.weaker, vocabulary)
    derivation = explain_weaker(
        policy, stronger, weaker, strict_rules=args.strict_rules
    )
    if derivation is None:
        print(
            f"NO: {format_privilege(weaker)} is not weaker than "
            f"{format_privilege(stronger)} under this policy"
        )
        return 1
    print(
        f"YES: {format_privilege(weaker)} is weaker than "
        f"{format_privilege(stronger)}; derivation:"
    )
    print(derivation.format())
    return 0


def _cmd_weaker(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    vocabulary = Vocabulary.of_policy(policy)
    privilege = parse_privilege(args.privilege, vocabulary)
    count = 0
    for term in enumerate_weaker(policy, privilege, max_depth=args.max_depth):
        print(format_privilege(term))
        count += 1
        if count >= args.limit:
            print(f"... stopped at limit {args.limit} (the set may be infinite)")
            break
    return 0


def _cmd_check_refinement(args: argparse.Namespace) -> int:
    phi = _load_policy(args.phi)
    psi = _load_policy(args.psi)
    witness = refinement_counterexample(phi, psi)
    if witness is None:
        print("YES: psi is a non-administrative refinement of phi (Def. 6)")
        return 0
    print(f"NO: {witness}")
    return 1


def _cmd_check_admin_refinement(args: argparse.Namespace) -> int:
    phi = _load_policy(args.phi)
    psi = _load_policy(args.psi)
    result = check_admin_refinement(
        phi, psi, depth=args.depth, direction=args.direction
    )
    if result.holds:
        print(
            f"HOLDS up to depth {result.depth} "
            f"({result.obligations_checked} obligations, "
            f"{result.obligations_matched_trivially} trivial)"
        )
        return 0
    print("REFUTED; counterexample queue:")
    for command in result.counterexample or ():
        print(f"  {command}")
    return 1


def _cmd_run_queue(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    queue = queue_from_json(Path(args.queue).read_text())
    mode = Mode.REFINED if args.refined else Mode.STRICT
    final, records = run_queue(policy, queue, mode)
    for record in records:
        verdict = "executed" if record.executed else "no-op (not authorized)"
        extra = ""
        if record.executed and record.implicit:
            extra = f"  [implicit via {record.authorized_by}]"
        print(f"{record.command}: {verdict}{extra}")
    print("final policy:")
    print(format_policy_source(final), end="")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    print(policy_to_dot(policy, name=args.name), end="")
    return 0


def _cmd_explain_access(args: argparse.Namespace) -> int:
    from .graph.paths import explain_reachability

    policy = _load_policy(args.policy)
    vocabulary = Vocabulary.of_policy(policy)
    subject = vocabulary.resolve(args.subject)
    privilege = parse_privilege(args.privilege, vocabulary)
    if policy.reaches(subject, privilege):
        print(f"ALLOWED: {explain_reachability(policy.graph, subject, privilege)}")
        return 0
    print(f"DENIED: {subject} does not reach {format_privilege(privilege)}")
    roles = ", ".join(sorted(str(r) for r in policy.authorized_roles(subject)))
    print(f"  subject's authorized roles: {roles or '(none)'}")
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from .core.diff import diff_policies

    old = _load_policy(args.old)
    new = _load_policy(args.new)
    diff = diff_policies(old, new)
    print(diff.summary())
    if diff.direction in ("refinement", "equivalent"):
        return 0
    return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.safety import can_obtain

    policy = _load_policy(args.policy)
    vocabulary = Vocabulary.of_policy(policy)
    subject = vocabulary.resolve(args.subject)
    privilege = parse_privilege(args.privilege, vocabulary)
    mode = Mode.REFINED if args.refined else Mode.STRICT
    acting = None
    if args.acting is not None:
        # An explicitly empty collusion set means *nobody acts* —
        # distinct from omitting the flag (everyone may act).
        from .core.entities import User

        acting = [User(name) for name in args.acting]
    verdict = can_obtain(
        policy, subject, privilege,
        depth=args.depth, mode=mode, acting_users=acting,
    )
    print(f"explored {verdict.states_explored} states "
          f"(compiled explorer, depth {args.depth}, {mode.value} mode)")
    if verdict.reachable:
        if verdict.witness:
            print(f"REACHABLE in {len(verdict.witness)} step(s):")
            for command in verdict.witness:
                print(f"  {command}")
        else:
            print("REACHABLE now (no administrative steps needed)")
        return 0
    print(f"SAFE: {subject} cannot obtain {format_privilege(privilege)} "
          f"within {args.depth} administrative step(s)")
    return 1


_LINT_FIXTURES = {
    "figure1": "the paper's Figure 1 policy",
    "figure2": "the paper's Figure 2 policy",
    "figure3": "the paper's Figure 3 policy",
    "hospital": "the hospital workload (default shape)",
    "enterprise": "the enterprise workload (default shape)",
}


def _policy_target(args: argparse.Namespace, label: str) -> Policy:
    if (args.policy is None) == (args.fixture is None):
        raise ReproError(
            f"{label} needs exactly one of: a policy file, or --fixture"
        )
    if args.policy is not None:
        return _load_policy(args.policy)
    if args.fixture in ("figure1", "figure2", "figure3"):
        from .papercases import figures

        return getattr(figures, args.fixture)()
    if args.fixture == "hospital":
        from .workloads.hospital import hospital_policy

        return hospital_policy()
    from .workloads.enterprise import enterprise_policy

    return enterprise_policy()


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis.constraints import SsdConstraint
    from .analysis.lint import Severity, lint_policy
    from .core.entities import Role
    from .errors import AnalysisError

    policy = _policy_target(args, "lint")
    constraints = []
    for position, spec in enumerate(args.ssd or []):
        names = [name.strip() for name in spec.split(",") if name.strip()]
        if len(names) < 2:
            raise AnalysisError(
                f"--ssd needs at least two comma-separated roles, "
                f"got {spec!r}"
            )
        constraints.append(
            SsdConstraint(
                f"ssd_{position}",
                frozenset(Role(name) for name in names),
            )
        )
    threshold = Severity.parse(args.severity)
    if args.dry_run and not args.fix:
        raise AnalysisError("--dry-run only makes sense with --fix")
    if args.fix:
        from .analysis.repair import repair_policy

        report = repair_policy(
            policy,
            rules=args.rules,
            constraints=constraints,
            severity=threshold,
        )
        if args.json:
            print(report.to_json())
        else:
            for outcome in report.outcomes:
                print(outcome.render())
            for finding in report.remaining:
                print(finding.render())
            summary = (
                f"repair: {len(report.applied)} plan(s) applied, "
                f"{len(report.rejected)} rejected, "
                f"{len(report.remaining)} finding(s) remaining at or "
                f"above {threshold.label} (compiled kernel"
            )
            if args.dry_run:
                summary += ", dry run"
            print(summary + ")")
        if args.policy is not None and not args.dry_run and report.applied:
            Path(args.policy).write_text(
                format_policy_source(report.policy)
            )
            print(f"wrote repaired policy to {args.policy}")
        return 1 if report.remaining else 0
    report = lint_policy(policy, rules=args.rules, constraints=constraints)
    selected = report.at_or_above(threshold)
    if args.json:
        print(json.dumps(
            {
                "severity": threshold.label,
                "findings": [finding.as_dict() for finding in selected],
                "stats": report.stats,
            },
            indent=2,
        ))
    else:
        for finding in selected:
            print(finding.render())
        suppressed = len(report.findings) - len(selected)
        summary = (
            f"{len(selected)} finding(s) at or above {threshold.label} "
            "(compiled kernel"
        )
        if suppressed:
            summary += f", {suppressed} below threshold"
        print(summary + ")")
    return 1 if selected else 0


def _cmd_flexibility(args: argparse.Namespace) -> int:
    from .analysis.compare import flexibility_report

    policy = _load_policy(args.policy)
    report = flexibility_report(policy)
    for label, value in report.as_rows():
        print(f"{label:36} {value}")
    return 0


def _cmd_audit_matrix(args: argparse.Namespace) -> int:
    import json

    from .analysis.audit import audit_matrix

    policy = _policy_target(args, "audit-matrix")
    report = audit_matrix(policy)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(
        f"audit matrix at policy version {report.version} "
        f"({len(report.users)} users x {len(report.privileges)} "
        "privileges)"
    )
    for user in report.users:
        grants, revokes = report.admin_counts(user)
        held = sorted(str(p) for p in report.rows[user])
        admin = f"  [admin: {grants}G/{revokes}R]" if grants or revokes else ""
        print(f"{user.name:24} {', '.join(held) or '-'}{admin}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .workloads.fuzz import (
        fuzz_batch_authz,
        fuzz_compiled_kernel,
        fuzz_crash_recovery,
        fuzz_lint,
        fuzz_many,
        fuzz_pdp,
        fuzz_repair,
    )

    reports = fuzz_many(range(args.seeds), steps=args.steps)
    executed = sum(r.executed for r in reports)
    implicit = sum(r.implicit for r in reports)
    denied = sum(r.denied for r in reports)
    violations = [v for r in reports for v in r.violations]
    print(f"campaigns: {len(reports)}  steps/campaign: {args.steps}")
    print(f"executed: {executed} (implicit: {implicit})  denied: {denied}")
    if args.kernel_diff:
        kernel_reports = [
            fuzz_compiled_kernel(seed, steps=args.steps)
            for seed in range(args.seeds)
        ]
        violations += [v for r in kernel_reports for v in r.violations]
        print(
            f"reference agreement: {len(kernel_reports)} campaigns"
        )
    if args.batch_diff:
        batch_reports = [
            fuzz_batch_authz(seed) for seed in range(args.seeds)
        ]
        violations += [v for r in batch_reports for v in r.violations]
        print(
            f"batch-authorization agreement: {len(batch_reports)} "
            "campaigns, verdicts checked against the reference"
        )
    if args.lint_diff:
        lint_reports = [
            fuzz_lint(seed, steps=args.steps) for seed in range(args.seeds)
        ]
        violations += [v for r in lint_reports for v in r.violations]
        print(
            f"lint agreement: {len(lint_reports)} campaigns, rules and "
            "reference twins, session re-lints pinned to fresh full "
            "lints, policy index to a fresh build"
        )
        compared, carried = (
            sum(r.counts.get(name, 0) for r in lint_reports)
            for name in ("depth_k_compared", "depth_k_carried_compiled")
        )
        print(
            f"depth-k-escalation in re-lints: {compared} finding(s) "
            f"compared, {carried} carried"
        )
    if args.repair_diff:
        repair_reports = [
            fuzz_repair(seed, steps=args.steps) for seed in range(args.seeds)
        ]
        violations += [v for r in repair_reports for v in r.violations]
        print(
            f"repair agreement: {len(repair_reports)} campaigns, "
            "driver and reference driver, refinement + fixpoint + "
            "policy index checked"
        )
    if args.pdp_diff:
        pdp_reports = [fuzz_pdp(seed) for seed in range(args.seeds)]
        violations += [v for r in pdp_reports for v in r.violations]
        print(
            f"pdp agreement: {len(pdp_reports)} campaigns "
            "(concurrent readers vs. micro-batched writer), "
            "decisions pinned at WAL-replayed snapshot versions"
        )
    if args.crash_diff:
        crash_reports = [
            fuzz_crash_recovery(seed) for seed in range(args.seeds)
        ]
        violations += [v for r in crash_reports for v in r.violations]
        print(
            f"crash-recovery agreement: {len(crash_reports)} campaigns "
            "(kill at every injection point, recovery pinned "
            "byte-identical to the oracle, "
            "recoverable append failures leave a verifying chain, "
            "plus the single-record tamper matrix)"
        )
    if violations:
        print(f"INVARIANT VIOLATIONS ({len(violations)}):")
        for violation in violations[:10]:
            print(f"  {violation}")
        return 1
    print("invariants: all hold")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .core.entities import Role, User
    from .dbms import execute_sql, hospital_database
    from .errors import AccessDenied

    mode = Mode.REFINED if args.refined else Mode.STRICT
    options = {"path": args.path} if args.path else {}
    database = hospital_database(mode=mode, backend=args.backend, **options)
    session = database.login(
        User(args.user), *(Role(name) for name in args.roles)
    )
    exit_code = 0
    for sql in args.sql:
        try:
            result = execute_sql(database, session, sql)
        except AccessDenied as denied:
            print(f"DENIED: {denied}")
            exit_code = 1
        else:
            for row in result.rows:
                print("  ".join(f"{column}={value}"
                                for column, value in row.items()))
            print(f"-- {len(result.rows)} row(s), {result.affected} affected")
    if args.audit:
        print(f"audit trail ({args.backend} backend, "
              f"capabilities: {database.store.capabilities}):")
        for entry in database.audit:
            print(f"  {entry}")
    database.close()
    return exit_code


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import random

    from .core.commands import Command, CommandAction
    from .core.entities import User
    from .serve import PolicyDecisionPoint, RateLimited, RateLimiter

    policy = _policy_target(args, "serve-bench")
    users = sorted(policy.users(), key=str)
    roles = sorted(policy.roles(), key=str)
    if not users or not roles:
        raise ReproError("serve-bench needs a policy with users and roles")
    limiter = None
    if args.rate_limit is not None:
        try:
            capacity_text, rate_text = args.rate_limit.split(":", 1)
            limiter = RateLimiter(
                capacity=float(capacity_text), rate=float(rate_text)
            )
        except ValueError as error:
            raise ReproError(
                f"--rate-limit wants CAPACITY:RATE, got "
                f"{args.rate_limit!r} ({error})"
            ) from None
    rng = random.Random(args.seed)
    principals: list[User] = [
        users[i % len(users)] for i in range(args.principals)
    ]
    # A bounded hot pool of candidate edges: bursts re-ask the same
    # questions page after page, the workload shape the decision cache
    # exists for.
    pool = [
        (
            rng.choice((CommandAction.GRANT, CommandAction.REVOKE)),
            rng.choice(users),
            rng.choice(roles),
        )
        for _ in range(max(16, args.principals * args.probes // 2))
    ]

    def probe(subject: User) -> Command:
        action, user, role = rng.choice(pool)
        return Command(subject, action, user, role)

    async def page(pdp, subject):
        requests = [probe(subject) for _ in range(args.probes)]
        try:
            await pdp.check_many(subject, requests)
        except RateLimited:
            pass  # counted on the metrics surface

    async def write(pdp, command):
        try:
            await pdp.submit(command)
        except ReproError:
            # Rate limits, shed writes, injected crashes: for a chaos
            # run the point is that the service keeps serving — the
            # outcome is on the metrics surface.
            pass

    async def scenario():
        async with PolicyDecisionPoint(
            policy=policy,
            rate_limiter=limiter,
            wal=args.wal,
        ) as pdp:
            for _ in range(args.rounds):
                for _ in range(args.bursts):
                    await asyncio.gather(*[
                        page(pdp, subject) for subject in principals
                    ])
                writes = [
                    probe(rng.choice(users)) for _ in range(args.writers)
                ]
                await asyncio.gather(*[
                    write(pdp, command) for command in writes
                ])
            return pdp.statistics()

    if args.inject:
        from .workloads.faults import FAULTS

        FAULTS.load_env(args.inject)
    try:
        stats = asyncio.run(scenario())
    finally:
        if args.inject:
            FAULTS.clear()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    cache = stats["cache"]
    asked = cache["hits"] + cache["misses"]
    ratio = 100.0 * cache["hits"] / asked if asked else 0.0
    print(
        f"served {stats['decisions']} decisions for {args.principals} "
        f"principals over {args.rounds}x{args.bursts} bursts "
        f"(policy version {stats['version']})"
    )
    print(
        f"mutations: {stats['mutations']} in {stats['batches']} "
        f"micro-batch(es) (max batch {stats['max_batch_size']}, "
        f"queue peak {stats['queue_depth_peak']})"
    )
    print(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({ratio:.1f}% hit ratio), {cache['entries']} entries, "
        f"{cache['evicted_entries']} evicted, "
        f"{cache['full_clears']} full clears"
    )
    if limiter is not None:
        print(f"rate limited: {stats['rate_limited']}")
    writer = stats["writer"]
    if args.inject or writer["health"] != "serving" or writer["total_failures"]:
        print(
            f"writer: {writer['health']} "
            f"({writer['total_failures']} failures, "
            f"{writer['restarts']} restarts, "
            f"{writer['breaker_trips']} breaker trips)"
        )
    if "wal" in stats:
        wal = stats["wal"]
        print(
            f"wal: {wal['records']} records ({wal['batches']} batches, "
            f"{wal['bytes']} bytes) head {wal['head'][:12]}..."
        )
    for label, key in (
        ("decision", "decision_latency"), ("mutation", "mutation_latency"),
        ("queue wait", "queue_wait_latency"),
    ):
        histogram = stats[key]
        print(
            f"{label} latency: p50 {histogram['p50'] * 1e6:.1f}us  "
            f"p99 {histogram['p99'] * 1e6:.1f}us  "
            f"max {histogram['max'] * 1e6:.1f}us  "
            f"({histogram['count']} samples)"
        )
    return 0


def _cmd_wal_verify(args: argparse.Namespace) -> int:
    import json

    from .serve.wal import WalError, read_wal, verify_chain

    try:
        records, _ = read_wal(args.path, tolerate_torn_tail=False)
        head = verify_chain(records, expected_head=args.head)
    except WalError as error:
        if args.json:
            print(json.dumps({"ok": False, "error": str(error)}))
        else:
            print(f"WAL CORRUPT: {error}")
        return 1
    version = next(
        (
            record.payload["version"] for record in reversed(records)
            if isinstance(record.payload.get("version"), int)
        ),
        None,
    )
    if args.json:
        print(json.dumps({
            "ok": True,
            "records": len(records),
            "batches": sum(1 for r in records if r.kind == "batch"),
            "head": head,
            "version": version,
        }, indent=2))
    else:
        batches = sum(1 for r in records if r.kind == "batch")
        print(
            f"WAL OK: {len(records)} records ({batches} batches), "
            f"policy version {version}"
        )
        print(f"head: {head}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .papercases import figures

    for name, builder in [
        ("Figure 1", figures.figure1),
        ("Figure 2", figures.figure2),
        ("Figure 3 (strict assignment)", figures.figure3_after_strict_assignment),
        ("Figure 3 (refined assignment)", figures.figure3_after_refined_assignment),
    ]:
        print(f"# --- {name} ---")
        print(format_policy_source(builder()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rbac",
        description=(
            "Administrative RBAC with privilege-ordering refinement "
            "(Dekker & Etalle, 2007)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    show = subparsers.add_parser("show-policy", help="summarize a policy file")
    show.add_argument("policy")
    show.add_argument("--full", action="store_true", help="print the document")
    show.set_defaults(func=_cmd_show_policy)

    order = subparsers.add_parser(
        "check-order", help="decide the privilege ordering P ~> Q"
    )
    order.add_argument("policy")
    order.add_argument("stronger")
    order.add_argument("weaker")
    order.add_argument(
        "--strict-rules", action="store_true",
        help="use the literal Definition 8 rules (no Example-6 closure)",
    )
    order.set_defaults(func=_cmd_check_order)

    weaker = subparsers.add_parser(
        "weaker", help="enumerate privileges weaker than P"
    )
    weaker.add_argument("policy")
    weaker.add_argument("privilege")
    weaker.add_argument("--max-depth", type=int, default=3)
    weaker.add_argument("--limit", type=int, default=50)
    weaker.set_defaults(func=_cmd_weaker)

    refinement = subparsers.add_parser(
        "check-refinement", help="Definition 6 check (phi refines-to psi?)"
    )
    refinement.add_argument("phi")
    refinement.add_argument("psi")
    refinement.set_defaults(func=_cmd_check_refinement)

    admin = subparsers.add_parser(
        "check-admin-refinement", help="bounded Definition 7 check"
    )
    admin.add_argument("phi")
    admin.add_argument("psi")
    admin.add_argument("--depth", type=int, default=2)
    admin.add_argument(
        "--direction",
        choices=["psi-universal", "phi-universal"],
        default="psi-universal",
    )
    admin.set_defaults(func=_cmd_check_admin_refinement)

    queue = subparsers.add_parser(
        "run-queue", help="execute a JSON command queue (Definition 5)"
    )
    queue.add_argument("policy")
    queue.add_argument("queue")
    queue.add_argument(
        "--refined", action="store_true",
        help="authorize via the privilege ordering (refined mode)",
    )
    queue.set_defaults(func=_cmd_run_queue)

    dot = subparsers.add_parser("export-dot", help="Graphviz DOT export")
    dot.add_argument("policy")
    dot.add_argument("--name", default="policy")
    dot.set_defaults(func=_cmd_export_dot)

    figures = subparsers.add_parser(
        "figures", help="print the paper's figures as policy documents"
    )
    figures.set_defaults(func=_cmd_figures)

    explain = subparsers.add_parser(
        "explain-access",
        help="why does (or doesn't) a subject reach a privilege?",
    )
    explain.add_argument("policy")
    explain.add_argument("subject")
    explain.add_argument("privilege")
    explain.set_defaults(func=_cmd_explain_access)

    diff = subparsers.add_parser(
        "diff", help="structural + refinement-direction diff of two policies"
    )
    diff.add_argument("old")
    diff.add_argument("new")
    diff.set_defaults(func=_cmd_diff)

    analyze = subparsers.add_parser(
        "analyze",
        help="bounded safety query: can SUBJECT ever obtain PRIVILEGE?",
    )
    analyze.add_argument("policy")
    analyze.add_argument("subject")
    analyze.add_argument("privilege")
    analyze.add_argument(
        "--depth", type=int, default=3,
        help="administrative step bound (default 3)",
    )
    analyze.add_argument(
        "--refined", action="store_true",
        help="administrators act under the privilege ordering",
    )
    analyze.add_argument(
        "--acting", nargs="*", default=None, metavar="USER",
        help="restrict who issues commands (collusion set)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    lint = subparsers.add_parser(
        "lint",
        help="static policy analysis: findings, witnesses, repairs",
    )
    lint.add_argument(
        "policy", nargs="?", default=None,
        help="policy file (or use --fixture)",
    )
    lint.add_argument(
        "--fixture", choices=sorted(_LINT_FIXTURES), default=None,
        help="lint a built-in policy instead of a file",
    )
    lint.add_argument(
        "--severity", default="info", metavar="LEVEL",
        help="report (and exit non-zero on) findings at or above this "
             "severity: info, warning, or error (default: info; an "
             "unknown level is a usage error, exit 2)",
    )
    lint.add_argument(
        "--rules", nargs="*", default=None, metavar="RULE",
        help="run only these rules (default: all)",
    )
    lint.add_argument(
        "--ssd", action="append", default=None, metavar="R1,R2[,R3...]",
        help="declare an SSD separation set for constraint-conflict "
             "(repeatable)",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="plan and apply verified repairs to a re-lint fixpoint "
             "(each plan must refine the policy and strictly shrink "
             "the finding set); a file target is rewritten in place "
             "unless --dry-run is given",
    )
    lint.add_argument(
        "--dry-run", action="store_true",
        help="with --fix: report the plans without writing the "
             "repaired policy back",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.set_defaults(func=_cmd_lint)

    flexibility = subparsers.add_parser(
        "flexibility",
        help="permitted-operation counts: strict / refined / baselines",
    )
    flexibility.add_argument("policy")
    flexibility.set_defaults(func=_cmd_flexibility)

    fuzz = subparsers.add_parser(
        "fuzz", help="run monitor-invariant fuzzing campaigns"
    )
    fuzz.add_argument("--seeds", type=int, default=10)
    fuzz.add_argument("--steps", type=int, default=50)
    fuzz.add_argument(
        "--kernel-diff", action="store_true",
        help="additionally pin the bitset kernel to the reference "
             "index under churn (invariant 9)",
    )
    fuzz.add_argument(
        "--batch-diff", action="store_true",
        help="additionally pin batch authorization to per-pair scalar "
             "decisions and the reference index (invariant 12)",
    )
    fuzz.add_argument(
        "--lint-diff", action="store_true",
        help="additionally pin the lint rules to their frozenset "
             "reference twins, and lint-session re-lints to fresh full "
             "lints, under churn (invariant 11)",
    )
    fuzz.add_argument(
        "--repair-diff", action="store_true",
        help="additionally pin the lint-to-repair engine to its "
             "reference run, with refinement and fixpoint checks "
             "(invariant 13)",
    )
    fuzz.add_argument(
        "--pdp-diff", action="store_true",
        help="additionally pin every async PDP decision and snapshot "
             "to the state its WAL replays to at that version "
             "(invariant 14)",
    )
    fuzz.add_argument(
        "--crash-diff", action="store_true",
        help="additionally kill a WAL-attached PDP at every fault-"
             "injection point and pin recovery byte-identical to an "
             "uninterrupted oracle, plus the single-record tamper "
             "matrix (invariant 15)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    audit = subparsers.add_parser(
        "audit-matrix",
        help="whole-population held-privilege audit in one batch sweep",
    )
    audit.add_argument(
        "policy", nargs="?", default=None,
        help="policy file (or use --fixture)",
    )
    audit.add_argument(
        "--fixture", choices=sorted(_LINT_FIXTURES), default=None,
        help="audit a built-in policy instead of a file",
    )
    audit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    audit.set_defaults(func=_cmd_audit_matrix)

    query = subparsers.add_parser(
        "query",
        help="run SQL against the guarded hospital DBMS "
             "(any storage backend)",
    )
    query.add_argument("sql", nargs="+", help="SQL statement(s) to execute")
    query.add_argument(
        "--backend", default="memory",
        choices=["memory", "sqlite", "kvlog"],
        help="storage engine behind the guarded database",
    )
    query.add_argument(
        "--path", default=None,
        help="persistence path for the sqlite/kvlog backends",
    )
    query.add_argument("--user", default="diana", help="session user")
    query.add_argument(
        "--roles", nargs="*", default=["nurse"],
        help="roles to activate (default: nurse)",
    )
    query.add_argument(
        "--refined", action="store_true",
        help="authorize administration via the privilege ordering",
    )
    query.add_argument(
        "--audit", action="store_true", help="print the audit trail"
    )
    query.set_defaults(func=_cmd_query)

    serve = subparsers.add_parser(
        "serve-bench",
        help="drive the asyncio PDP through a concurrent workload and "
             "print its metrics surface",
    )
    serve.add_argument(
        "policy", nargs="?", default=None,
        help="policy file (or use --fixture)",
    )
    serve.add_argument(
        "--fixture", choices=sorted(_LINT_FIXTURES), default=None,
        help="serve a built-in policy instead of a file",
    )
    serve.add_argument(
        "--principals", type=int, default=32,
        help="concurrent reader principals per burst (default 32)",
    )
    serve.add_argument(
        "--probes", type=int, default=4,
        help="authorization probes per principal page (default 4)",
    )
    serve.add_argument(
        "--bursts", type=int, default=4,
        help="read bursts between write phases (default 4)",
    )
    serve.add_argument(
        "--rounds", type=int, default=3,
        help="write rounds (default 3)",
    )
    serve.add_argument(
        "--writers", type=int, default=4,
        help="mutations per write phase (default 4)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (default 0)",
    )
    serve.add_argument(
        "--rate-limit", default=None, metavar="CAPACITY:RATE",
        help="front the PDP with a per-principal token bucket "
             "(burst capacity, refill tokens/second)",
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    serve.add_argument(
        "--wal", default=None, metavar="PATH",
        help="attach a hash-chained write-ahead log: every accepted "
             "micro-batch is fsync'd before its futures resolve "
             "(verify afterwards with `repro wal verify PATH`)",
    )
    serve.add_argument(
        "--inject", default=None, metavar="SPEC",
        help="arm fault injection for the run (REPRO_FAULTS syntax: "
             "point:action[:times[:after]][,...] — points listed in "
             "repro.workloads.faults.INJECTION_POINTS)",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    wal = subparsers.add_parser(
        "wal",
        help="inspect a policy write-ahead log",
    )
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_verify = wal_sub.add_parser(
        "verify",
        help="verify the hash chain of a policy WAL (exit 1 when "
             "tampered, torn, or truncated against --head)",
    )
    wal_verify.add_argument("path", help="the WAL file to verify")
    wal_verify.add_argument(
        "--head", default=None, metavar="HEX",
        help="expected head digest — an externally recorded anchor; "
             "required to detect tail truncation, which is otherwise "
             "internally consistent",
    )
    wal_verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    wal_verify.set_defaults(func=_cmd_wal_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
