// Region bundle: the paper's hand-held-device scenario, end to end. A
// navigation server preprocesses the city once; a phone downloads only the
// labels of its region ("not a data structure whose size is proportional
// to the whole graph of the world, but only to the relevant region") and
// answers every local distance query offline — including under road
// closures it merely holds the labels of.
package main

import (
	"bytes"
	"fmt"
	"log"

	"fsdl"
	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Server side: the whole city.
	const side = 20
	city := fsdl.GridGraph2D(side, side)
	scheme, err := fsdl.Build(city, 2)
	if err != nil {
		return err
	}
	var whole bytes.Buffer
	if err := labelstore.Save(&whole, scheme, nil); err != nil {
		return err
	}
	fmt.Printf("server: city of %d junctions preprocessed; full label DB = %.1f KiB\n",
		city.NumVertices(), float64(whole.Len())/1024)

	// Phone side: download only the neighborhood around home.
	home := 8*side + 7
	const radius = 5
	var bundle bytes.Buffer
	if err := labelstore.Save(&bundle, scheme, labelstore.Region(scheme, home, radius)); err != nil {
		return err
	}
	bundleBytes := bundle.Len()
	store, err := labelstore.Load(&bundle)
	if err != nil {
		return err
	}
	fmt.Printf("phone: downloaded region around junction %d (radius %d): %d labels, %.1f KiB (%.1f%% of the full DB)\n",
		home, radius, store.NumLabels(), float64(bundleBytes)/1024,
		100*float64(bundleBytes)/float64(whole.Len()))

	// Offline local queries.
	cafe := home + 3 + 2*side // 3 east, 2 south
	d, ok, err := distance(store, home, cafe, nil)
	if err != nil {
		return err
	}
	fmt.Printf("offline: home -> cafe estimate %d (ok=%v)\n", d, ok)

	// A closure arrives as a push notification: just a junction id. The
	// phone already holds that junction's label — no re-download.
	closures := fsdl.FaultVertices(home+1, home+side)
	d, ok, err = distance(store, home, cafe, closures)
	if err != nil {
		return err
	}
	fmt.Printf("offline, 2 closures: home -> cafe estimate %d (ok=%v)\n", d, ok)

	// Queries leaving the region fail loudly — time to download the next
	// bundle, exactly the granularity the paper's motivation describes.
	if _, _, err := distance(store, home, 0, nil); err != nil {
		fmt.Printf("out-of-region query correctly refused: %v\n", err)
	}
	return nil
}

// distance answers (src, dst, F) from the store's labels alone. A label
// the store lacks — a query leaving the region — is an error.
func distance(store *labelstore.Store, src, dst int, faults *fsdl.FaultSet) (int64, bool, error) {
	q, err := core.ResolveQuery(src, dst, faults, store.Label, false)
	if err != nil || q == nil {
		return 0, false, err
	}
	d, ok := q.Distance()
	return d, ok, nil
}
