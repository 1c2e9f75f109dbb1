"""Workload generators: random instances, paper constructions, datasets."""

from .datasets import company_directory, music_catalog, social_network
from .families import (
    FIGURE1_QUERY_TEXT,
    example2_graph,
    example5_theta,
    figure1_wdpt,
    figure2_family,
    prop2_family,
    three_colorability_instance,
)
from .generators import (
    clique_cq,
    cycle_cq,
    grid_cq,
    path_cq,
    random_database,
    random_graph_database,
    random_wdpt,
    star_cq,
)

__all__ = [
    "company_directory",
    "music_catalog",
    "social_network",
    "FIGURE1_QUERY_TEXT",
    "example2_graph",
    "example5_theta",
    "figure1_wdpt",
    "figure2_family",
    "prop2_family",
    "three_colorability_instance",
    "clique_cq",
    "cycle_cq",
    "grid_cq",
    "path_cq",
    "random_database",
    "random_graph_database",
    "random_wdpt",
    "star_cq",
]
