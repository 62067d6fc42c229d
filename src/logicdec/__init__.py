"""logicdec: rule-controllable constrained decoding.

User-defined first-order rules are evaluated as soft truth vectors over an
entire vocabulary; a decision function shifts a language model's attention
and next-token distributions toward words the rules favour, inside a grouped,
pruned beam search.
"""

from .decision import decide, pre_activation
from .decoder import (DecodeResult, DecodingConfig, Hypothesis, PRESETS,
                      coverage_of, coverage_table, decode, plain_beam_search)
from .kb import (FactBase, StemIndex, Vocabulary, align_word_to_token,
                 equal_vector, ingest_triples, load_factbase)
from .lm import NgramLM, NgramScorer, Scorer, ngram_train
from .prover import (Domain, EvalContext, and_avg_vec, and_luk_vec, not_vec,
                     or_vec, prove, prove_scalar)
from .rules import (EmptyDomainError, RuleLinkError, RuleProgram,
                    RuleSyntaxError, parse_program, pretty, tokenize)
from .stemming import word_stem
from .tasks import (TaskInstance, corpus_coverage, dialogue_rule_template,
                    extract_keywords, instance_coverage, lexical_rule_template,
                    load_instances)
from .transformer import (AttentionHookBundle, TinyTransformer,
                          TransformerConfig, TransformerScorer,
                          load_weights, precompute_target_kv, save_weights)

__version__ = "0.1.0"
