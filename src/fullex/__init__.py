"""Perfect-matching extendability analysis of (4,5,6)-fullerene graphs."""

__version__ = "0.1.0"

from .graphs import (PlaneCubicGraph, canonical_code, connectivity,
                     edge_cuts_up_to, faces, from_rotation, girth,
                     has_cyclic_cut_leq3, short_cycles_facial,
                     validate_fullerene)
from .matching import (count_perfect_matchings, deficiency_certificate,
                       extends_to_perfect, has_perfect_matching,
                       is_factor_critical, maximum_matching,
                       perfect_matchings)
from .extendability import extendability_number, is_k_extendable
from .antikekule import anti_kekule_number
from .families import build_tube, recognize_tube, verify_tube_pm_structure
from .enumerator import Catalogue, enumerate_fullerenes
from .harness import analyze_graph, sporadic_candidates, verify_all
