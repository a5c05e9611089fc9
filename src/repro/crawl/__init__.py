"""Measurement harnesses: HTTP Archive crawl, Alexa runs, overlap."""

from repro.crawl.alexa import AlexaCrawler, AlexaMeasurement, AlexaRun, AlexaVariant
from repro.crawl.classify import (
    ClassifiedDataset,
    classify_dataset,
    merge_classified_datasets,
)
from repro.crawl.httparchive import HarCorpus, HttpArchiveCrawler
from repro.crawl.overlap import overlap_datasets, overlap_sites
from repro.crawl.shards import CrawlShard, pending_items, plan_crawl_shards

__all__ = [
    "AlexaCrawler",
    "AlexaMeasurement",
    "AlexaRun",
    "AlexaVariant",
    "ClassifiedDataset",
    "classify_dataset",
    "merge_classified_datasets",
    "CrawlShard",
    "pending_items",
    "plan_crawl_shards",
    "HarCorpus",
    "HttpArchiveCrawler",
    "overlap_datasets",
    "overlap_sites",
]
