"""Populate once per process: the dataset image behind every cell.

Every cell starts by populating its application's database, and at one
seed every cell of a sweep populates the same one: RUBiS issues 6,617
SQL statements for it, Pet Store 1,176.  :func:`load_dataset` runs a
generator once per (generator, seed) in a process and keeps what it
returned as an *image*: the database's
:class:`~repro.rdbms.engine.DatabaseImage` (schemas, the stored row
dicts and counters) and the pickled catalog.  Every later call rebuilds
a database from the image without parsing or executing any SQL, and
unpickles a catalog of its own.  The copies share the schemas and every
row dict with the image and with each other, and build only their own
indexes: storage never changes a stored row in place (an update stores
a new dict, see :mod:`~repro.rdbms.storage`), so a cell may write to its
database freely and no other copy sees it.

A restored dataset is the generator's output exactly:

* the database has the same rows in the same heap order, the same index
  contents in the same layout (the generators only insert, so indexing
  in heap order rebuilds every hash index as it was, and its buckets and
  the key order sort to the same lists, see
  :meth:`~repro.rdbms.storage.Table.load_image`), and the same
  counters: ``statements_executed`` and the executor's scan counters
  count the generator's statements as if they had just run.  Only its
  prepared-statement cache starts empty;
* a generator draws only from its own named stream (``rubis-data``,
  ``petstore-data``), which nothing else reads, and streams are seeded
  by name (:mod:`repro.simnet.rng`), so not drawing it changes no other
  draw of the run.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Tuple

from ..rdbms.engine import Database
from ..rdbms.lru import LruCache
from ..simnet.rng import Streams

__all__ = ["load_dataset"]

Populate = Callable[[Streams], Tuple[Database, Any]]

# (generator, seed) -> (database image, pickled catalog).  A sweep loads
# both apps at one seed; four images leave room for a second seed.  An
# image holds references to rows its databases share, so it costs little
# beyond them.
_IMAGES = LruCache(4)


def load_dataset(populate: Populate, streams: Streams) -> Tuple[Database, Any]:
    """``populate(streams)``, from this process's image after the first call.

    ``populate`` is an application's data generator at its default sizes
    (:func:`~repro.apps.rubis.populate_rubis`,
    :func:`~repro.apps.petstore.populate_petstore`).  Every call returns
    a ``(database, catalog)`` pair of its own.
    """
    key = (populate, streams.master_seed)
    image = _IMAGES.get(key)
    if image is not None:
        database_image, catalog = image
        return Database.from_image(database_image), pickle.loads(catalog)
    database, catalog = populate(streams)
    _IMAGES.put(key, (database.image(), pickle.dumps(catalog, pickle.HIGHEST_PROTOCOL)))
    return database, catalog
