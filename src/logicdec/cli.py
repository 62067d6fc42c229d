"""Operator command line: knowledge-base ingestion, decoding runs,
evaluation, and the logic-vector service.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
The ``LOGICDEC_LOG`` environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .decoder import (PRESETS, DecodingConfig, coverage_of, coverage_table,
                      decode, plain_beam_search)
from .kb import Vocabulary, ingest_triples, load_factbase
from .lm import NgramScorer, ngram_train
from .rules import RuleProgram, parse_program
from .tasks import (DEFAULT_STOPWORDS, align_concepts, corpus_coverage,
                    dialogue_rule_template, lexical_rule_template, load_instances,
                    read_instances)
from .transformer import TinyTransformer, TransformerConfig, TransformerScorer, load_weights

log = logging.getLogger("logicdec")

NGRAM_ORDER = 3  # the n-gram scorer's order; it trains at lm.DISCOUNT


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _require_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: no such file: {path}")
    return p


def _read_words(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="logicdec",
                     description="Rule-controllable constrained decoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ing = sub.add_parser("ingest-kg", help="build a fact-base snapshot from triples")
    p_ing.add_argument("--triples", required=True, help="TSV triples: head<TAB>relation<TAB>tail[<TAB>weight]")
    p_ing.add_argument("--vocab", required=True, help="vocabulary file, one token per line")
    p_ing.add_argument("--mode", choices=("soft", "hard"), default="soft", help="edge weight mode")
    p_ing.add_argument("--out", required=True, help="snapshot output path")
    p_ing.add_argument("--stopwords", help="stop-word list, one per line")
    p_ing.add_argument("--blackwords", help="black-word list, one per line")

    common_decode = argparse.ArgumentParser(add_help=False)
    common_decode.add_argument("--factbase", required=True, help="fact-base snapshot path")
    common_decode.add_argument("--instances", required=True, help="JSONL instance file")
    common_decode.add_argument("--out", required=True, help="JSONL results output path")
    common_decode.add_argument("--scorer", choices=("ngram", "transformer"), default="ngram", help="next-token scorer")
    common_decode.add_argument("--corpus", help="training corpus for the n-gram scorer")
    common_decode.add_argument("--weights", help="transformer weight file (omit for seeded init)")
    common_decode.add_argument("--seed", type=int, default=0, help="transformer init seed")
    common_decode.add_argument("--beam", type=int, help="beam size")
    common_decode.add_argument("--max-length", type=int, default=16, help="max generated tokens")

    p_dec = sub.add_parser("decode", parents=[common_decode], help="run constrained decoding",
                           description="Each instance decodes under its kind's preset (lexical: "
                           "commongen, dialogue: personachat); the hyperparameter flags override both.")
    p_dec.add_argument("--alpha1", type=float, help="prefix-attention intensity")
    p_dec.add_argument("--alpha2", type=float, help="target-attention intensity")
    p_dec.add_argument("--alpha3", type=float, help="prediction intensity")
    p_dec.add_argument("--rho", type=float, help="pruning ratio in (0, 1]")
    p_dec.add_argument("--group-k", type=int, help="per-group retention budget")
    p_dec.add_argument("--rules", help="rule program file run instead of each instance's template")
    p_dec.add_argument("--trace", action="store_true", help="emit per-step top-5 before/after shifting")

    sub.add_parser("baseline-beam", parents=[common_decode],
                   help="run unconstrained beam search on the same scorer")

    p_eval = sub.add_parser("eval", help="score a results file")
    p_eval.add_argument("--results", required=True, help="JSONL results from decode")
    p_eval.add_argument("--instances", required=True, help="JSONL instance file")

    p_srv = sub.add_parser("serve", help="serve prove/decide over newline-delimited JSON")
    p_srv.add_argument("--factbase", required=True, help="fact-base snapshot path")
    p_srv.add_argument("--rules", required=True, help="rule program file")
    p_srv.add_argument("--bind", default="127.0.0.1:7350", help="host:port to listen on")

    return parser


# ---------------------------------------------------------------------------
# Helpers shared by decode/baseline

def _load_corpus_ids(path, vocab: Vocabulary) -> list[list[int]]:
    sequences = []
    bos = vocab.id_of("<s>")
    eos = vocab.id_of("</s>")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            words = line.split()
            if not words:
                continue
            ids = [vocab.id_of(w) for w in words]
            if None in ids:
                raise UsageError(f"--corpus: line {lineno}: token "
                                 f"{words[ids.index(None)]!r} not in vocabulary")
            if bos is not None and ids[0] != bos:
                ids.insert(0, bos)
            if eos is not None and ids[-1] != eos:
                ids.append(eos)
            sequences.append(ids)
    if not sequences:
        raise UsageError("--corpus: file contains no sentences")
    return sequences


def _build_scorer(args, facts):
    if args.scorer == "ngram":
        if not args.corpus:
            raise UsageError("--corpus is required with --scorer ngram")
        _require_file(args.corpus, "--corpus")
        corpus = _load_corpus_ids(args.corpus, facts.vocab)
        lm = ngram_train(corpus, order=NGRAM_ORDER, vocab_size=len(facts.vocab))
        return NgramScorer(lm)
    if args.weights:
        model = load_weights(_require_file(args.weights, "--weights"))
        if model.config.vocab_size != len(facts.vocab):
            raise UsageError("--weights: vocabulary size does not match the fact base")
    else:
        model = TinyTransformer(TransformerConfig(vocab_size=len(facts.vocab), seed=args.seed))
    # L steps feed the model L tokens: BOS and every generated token but the last
    if args.max_length > model.config.max_len:
        raise UsageError(f"--max-length {args.max_length} exceeds the transformer's max_len "
                         f"{model.config.max_len}")
    return TransformerScorer(model)


def _read_rules(path, rule: Optional[str] = None) -> RuleProgram:
    """The ``--rules`` program, which must parse, link and give ``rule`` one parameter."""
    source = Path(_require_file(path, "--rules")).read_text("utf-8")
    try:
        program = parse_program(source)
        if rule is not None and len(params := program.rule(rule).params) != 1:
            raise ValueError(f"rule '{rule}' takes {len(params)} parameters, not one")
    except ValueError as exc:  # a RuleSyntaxError or RuleLinkError too
        raise UsageError(f"--rules: {exc}") from None
    return program


def _decode_config(args, base: DecodingConfig) -> DecodingConfig:
    """``base`` with the hyperparameter flags given on the command line."""
    flags = {"beam": "beam_size", "alpha1": "alpha1", "alpha2": "alpha2", "alpha3": "alpha3",
             "rho": "prune_ratio", "group_k": "group_budget"}
    overrides = {name: getattr(args, flag) for flag, name in flags.items()
                 if getattr(args, flag, None) is not None}
    overrides.update(max_length=args.max_length)
    try:
        return replace(base, **overrides)
    except ValueError as exc:  # DecodingConfig rejects the setting
        raise UsageError(f"invalid decode setting: {exc}") from None


def _result_line(instance, hyp, facts, config, concepts, skipped=None, trace=None) -> dict:
    rec = {
        "id": instance.instance_id,
        "text": " ".join(facts.vocab.surface(t) for t in hyp.tokens
                         if t not in (config.bos_id, config.eos_id)),
        "score": hyp.logp,
        "coverage": coverage_of(hyp, concepts),
        "finished": hyp.finished,
        "traced": trace is not None,
    }
    if skipped is not None:
        rec["skipped"] = list(skipped)
    if trace is not None:
        rec["trace"] = trace
    return rec


def cmd_ingest_kg(args) -> int:
    triples = _require_file(args.triples, "--triples")
    vocab = Vocabulary.from_file(_require_file(args.vocab, "--vocab"))
    stop = _read_words(args.stopwords) if args.stopwords else DEFAULT_STOPWORDS
    black = _read_words(args.blackwords) if args.blackwords else frozenset()
    facts, report = ingest_triples(triples, vocab, mode=args.mode,
                                   stopwords=stop, blackwords=black)
    facts.save(args.out)
    print(f"triples read:      {report.lines_read}")
    print(f"relations kept:    {report.kept}")
    print(f"relations dropped: {report.discarded}")
    print(f"malformed lines:   {report.malformed}")
    print(f"edges stored:      {report.edges}")
    print(f"stem classes:      {report.stem_classes}")
    log.info("snapshot written to %s", args.out)
    return 0


def _decode_common(args, constrained: bool) -> int:
    # decode starts each instance kind from its preset, baseline-beam from no shift
    configs = {kind: _decode_config(args, PRESETS[preset] if constrained else DecodingConfig())
               for kind, preset in (("lexical", "commongen"), ("dialogue", "personachat"))}
    if args.seed < 0:  # the scorer setting too, before anything is loaded
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    override = _read_rules(args.rules, "R") if constrained and args.rules else None  # decode proves R
    facts = load_factbase(_require_file(args.factbase, "--factbase"))
    instance_path = _require_file(args.instances, "--instances")
    scorer = _build_scorer(args, facts)
    bos = facts.vocab.id_of("<s>")
    eos = facts.vocab.id_of("</s>")
    if bos is None:
        raise UsageError("--factbase: vocabulary lacks the '<s>' start token")
    configs = {kind: replace(c, bos_id=bos, eos_id=eos) for kind, c in configs.items()}

    if not constrained:  # one unconstrained search serves every instance
        config = configs["lexical"]  # the kinds' configs are equal
        searched = plain_beam_search(scorer, config.beam_size, config.max_length,
                                     bos_id=bos, eos_id=eos)

    written = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for instance_id, instance in read_instances(instance_path):
            try:
                if isinstance(instance, ValueError):
                    raise instance
                config = configs[instance.kind]
                if not constrained:
                    concepts = align_concepts(instance.concepts, facts)[0] \
                        if instance.kind == "lexical" else []
                    classes = facts.stems.class_of[list(searched.best.tokens)]
                    mask = int(np.bitwise_or.reduce(coverage_table(concepts, facts)[classes]))
                    best = replace(searched.best, covered=mask)
                    rec = _result_line(instance, best, facts, config, concepts)
                else:
                    if instance.kind == "lexical":
                        binding = lexical_rule_template(instance.concepts, facts)
                    else:
                        binding = dialogue_rule_template(instance.persona, instance.history, facts)
                    program = override or parse_program(binding.source)
                    result = decode(scorer, program, binding.rule, binding.ctx,
                                    config, trace=args.trace)
                    concepts = binding.ctx.sets.get("C", ())
                    rec = _result_line(instance, result.best, facts, config, concepts,
                                       skipped=binding.skipped,
                                       trace=result.trace if args.trace else None)
            except Exception as exc:
                log.error("instance %s failed: %s", instance_id, exc)
                rec = {"id": instance_id, "error": f"{type(exc).__name__}: {exc}"}
            out.write(json.dumps(rec) + "\n")
            written += 1
    print(f"wrote {written} results to {args.out}")
    return 0


def cmd_eval(args) -> int:
    path = _require_file(args.instances, "--instances")
    try:
        instances = load_instances(path)
    except ValueError as exc:  # a malformed line
        raise UsageError(f"--instances: {exc}") from None
    with open(_require_file(args.results, "--results"), encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if len(lines) != len(instances):
        raise UsageError(f"--results: {len(lines)} results vs {len(instances)} instances")
    records = []
    for (lineno, line), instance in zip(lines, instances):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or "error" not in rec and not (
                    isinstance(rec.get("text"), str) and type(rec.get("score")) in (int, float)):
                raise ValueError("expected an object with an 'error', or a string 'text' "
                                 "and a number 'score'")
            if "error" not in rec and not abs(float(rec["score"])) < np.inf:  # NaN or infinite
                raise ValueError(f"score {rec['score']} is not a finite number")
            if rec.get("id") != instance.instance_id:
                raise ValueError(f"id {rec.get('id')!r} is not {instance.instance_id!r}, "
                                 "its instance's")
        except (ValueError, OverflowError) as exc:  # an integer score past the float range
            raise UsageError(f"--results: line {lineno}: {exc}") from None
        records.append(rec)
    decoded = [rec for rec in records if "error" not in rec]
    outputs = ["" if "error" in rec else rec["text"] for rec in records]
    scores = [float(rec["score"]) for rec in decoded]
    lengths = [len(rec["text"].split()) for rec in decoded]
    coverage = corpus_coverage(outputs, instances)
    mean_len = float(np.mean(lengths)) if lengths else 0.0
    with np.errstate(over="ignore"):
        mean_score = float(np.mean(scores)) if scores else 0.0
    if not abs(mean_score) < np.inf:  # each score is finite, their sum need not be
        raise UsageError("--results: the mean score overflows a float")
    print(f"{'metric':<14}{'value':>10}")
    print(f"{'coverage(%)':<14}{coverage:>10.1f}")
    print(f"{'mean length':<14}{mean_len:>10.2f}")
    print(f"{'mean score':<14}{mean_score:>10.3f}")
    print(json.dumps({"coverage_percent": coverage, "mean_length": mean_len,
                      "mean_score": mean_score}))
    return 0


def cmd_serve(args) -> int:
    from .service import serve_forever
    host, _, port = args.bind.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"--bind: expected host:port with a port in 0..65535, got {args.bind!r}")
    facts = load_factbase(_require_file(args.factbase, "--factbase"))
    program = _read_rules(args.rules)
    serve_forever(facts, program, host, int(port))
    return 0


_COMMANDS = {
    "ingest-kg": cmd_ingest_kg,
    "decode": lambda args: _decode_common(args, constrained=True),
    "baseline-beam": lambda args: _decode_common(args, constrained=False),
    "eval": cmd_eval,
    "serve": cmd_serve,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LOGICDEC_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"logicdec: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:
        log.exception("command failed")
        print(f"logicdec: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
