"""The crawler.

Connects to each scanned destination over the simulated Tor transport and
tries to hold an HTTP(S) conversation, falling back to recording whatever
banner the service volunteers (SSH version strings, IRC notices).  Binary
data is excluded up front, as in the paper ("We excluded all binary data
such as images, executables, etc.").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.onion import OnionAddress
from repro.errors import CrawlError
from repro.faults.retry import RetryPolicy, connect_with_retry
from repro.faults.taxonomy import FailureCategory, FailureTaxonomy
from repro.io import Header
from repro.net.endpoint import ConnectOutcome
from repro.net.transport import TorTransport
from repro.obs.scope import Observer, ensure_observer
from repro.parallel import pmap
from repro.crawl.page import FetchedPage, PageKind
from repro.population.content import strip_html
from repro.sim.clock import Timestamp


@dataclass
class CrawlResults:
    """Everything the crawl produced, plus funnel counters."""

    codec_header = Header("crawl-results")

    pages: List[FetchedPage] = field(default_factory=list)
    tried: int = 0
    open_at_crawl: int = 0
    connected: int = 0
    #: How fetch failures were classified; all zero without a retry policy.
    failures: FailureTaxonomy = field(default_factory=FailureTaxonomy)
    # destination → first page for it, maintained by add_page so page_for is
    # O(1) instead of a linear scan per lookup (the classifier does one
    # lookup per classified destination).
    _page_index: Dict[Tuple[OnionAddress, int], FetchedPage] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for page in self.pages:
            self._page_index.setdefault(page.destination, page)

    def by_kind(self, kind: PageKind) -> List[FetchedPage]:
        """Pages of one kind."""
        return [page for page in self.pages if page.kind == kind]

    def add_page(self, page: FetchedPage) -> None:
        """Append a page, keeping the destination index in sync."""
        self.pages.append(page)
        self._page_index.setdefault(page.destination, page)

    def page_for(self, onion: OnionAddress, port: int) -> FetchedPage:
        """The page for a destination (crawl order preserved; unique).

        Indexed lookup; pages appended to :attr:`pages` directly (rather
        than through :meth:`add_page`) are picked up by rebuilding lazily.
        """
        if len(self._page_index) < len(self.pages):
            self._page_index.clear()
            for page in self.pages:
                self._page_index.setdefault(page.destination, page)
        page = self._page_index.get((onion, port))
        if page is None:
            raise CrawlError(f"destination not in crawl results: {(onion, port)}")
        return page


class Crawler:
    """Fetches destinations and extracts text.

    With a :class:`RetryPolicy`, fetches whose conversation fails
    transiently (circuit timeouts, mid-transfer truncation) are retried and
    accounted in :attr:`CrawlResults.failures`; a missing descriptor earns
    one re-fetch.  Without a policy every failure is final, exactly as
    before — including truncated conversations, which surface as DEAD.
    """

    def __init__(
        self,
        transport: TorTransport,
        retry_policy: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self._transport = transport
        self._retry_policy = retry_policy
        self._observer = ensure_observer(observer)

    def crawl(
        self,
        destinations: Iterable[Tuple[OnionAddress, int]],
        when: Timestamp,
        workers: Optional[int] = None,
    ) -> CrawlResults:
        """Fetch every (onion, port) destination at time ``when``.

        The fetch fan-out goes through :func:`repro.parallel.pmap`; the
        fetch closure captures the live transport (shared circuit-noise
        stream), so the executor keeps it in-process in destination order
        and the page list is identical at every ``workers`` value.
        """
        results = CrawlResults()

        def fetch(destination):
            onion, port = destination
            return self._fetch_one(onion, port, when)

        destination_list = list(destinations)
        for page, category in pmap(fetch, destination_list, workers=workers):
            results.tried += 1
            if page.kind is not PageKind.DEAD:
                results.open_at_crawl += 1
            if page.connected:
                results.connected += 1
            results.failures.record(category, page.attempts)
            results.add_page(page)
            self._observer.count("crawl_pages_total", kind=page.kind.value)
        self._observer.gauge("crawl_tried", results.tried)
        self._observer.gauge("crawl_connected", results.connected)
        self._observer.gauge("crawl_open_at_crawl", results.open_at_crawl)
        return results

    def _fetch_one(
        self, onion: OnionAddress, port: int, when: Timestamp
    ) -> Tuple[FetchedPage, Optional[FailureCategory]]:
        scheme = "https" if port == 443 else "http"
        attempts = 1
        category: Optional[FailureCategory] = None
        if self._retry_policy is None:
            result = self._transport.connect(onion, port, when)
            self._observer.add_time(result.latency)
        else:
            outcome = connect_with_retry(
                self._transport,
                onion,
                port,
                when,
                self._retry_policy,
                observer=self._observer,
            )
            result = outcome.result
            attempts = outcome.attempts
            category = outcome.category
            self._observer.add_time(max(0, outcome.finished_at - when))
        if result.outcome in (
            ConnectOutcome.UNREACHABLE,
            ConnectOutcome.REFUSED,
            ConnectOutcome.TIMEOUT,
            ConnectOutcome.ABNORMAL_ERROR,
        ) or (result.outcome is ConnectOutcome.OPEN and result.truncated):
            return (
                FetchedPage(
                    onion=onion,
                    port=port,
                    scheme=scheme,
                    kind=PageKind.DEAD,
                    error=result.error_message,
                    attempts=attempts,
                ),
                category,
            )
        endpoint = result.endpoint
        application = getattr(endpoint, "application", None)
        if application is not None and hasattr(application, "handle_request"):
            response = application.handle_request("/", when)
            return (
                FetchedPage(
                    onion=onion,
                    port=port,
                    scheme=scheme,
                    kind=PageKind.HTML,
                    status=response.status,
                    text=strip_html(response.body),
                    attempts=attempts,
                ),
                category,
            )
        if result.banner:
            return (
                FetchedPage(
                    onion=onion,
                    port=port,
                    scheme=scheme,
                    kind=PageKind.BANNER,
                    text=result.banner,
                    attempts=attempts,
                ),
                category,
            )
        return (
            FetchedPage(
                onion=onion,
                port=port,
                scheme=scheme,
                kind=PageKind.NO_RESPONSE,
                attempts=attempts,
            ),
            category,
        )
