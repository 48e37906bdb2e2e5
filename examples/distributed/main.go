// Distributed: Figure 1 of the paper, wired over real TCP sockets.
//
//	media server (HTTP)      daemons (RPC)        clients (RPC)
//	       \                     |                   /
//	        +----- distributed data dictionary -----+
//	                         |
//	                  Mirror DBMS (meta-data database)
//
// The example starts every party as its own server on an ephemeral port:
// the data dictionary, the media server, the nine extraction daemons, and
// the Mirror DBMS, which crawls the media server (web robot), runs the
// pipeline against daemons it discovers through the dictionary, registers
// itself, and finally answers a client query — also routed through the
// dictionary.
//
// Run: go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/daemon"
	"mirror/internal/dict"
	"mirror/internal/mediaserver"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; it prints to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 1: the open distributed architecture ==")

	// 1. the distributed data dictionary
	dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer stopDict()
	fmt.Fprintf(w, "data dictionary     %s\n", dictAddr)

	// 2. the media server (a web server owning the footage)
	items := corpus.Generate(corpus.Config{N: 24, W: 48, H: 48, Seed: 3, AnnotateRate: 0.75})
	mediaURL, stopMedia, err := mediaserver.Start(items)
	if err != nil {
		return err
	}
	defer stopMedia()
	fmt.Fprintf(w, "media server        %s\n", mediaURL)

	// 3. the daemons, each registering with the dictionary
	handles, err := daemon.StartDemoDaemons(dictAddr)
	if err != nil {
		return err
	}
	defer func() {
		for _, h := range handles {
			h.Stop()
		}
	}()
	for _, h := range handles {
		fmt.Fprintf(w, "daemon %-12s %-10s %s\n", h.Info.Name, h.Info.Kind, h.Info.Addr)
	}

	// 4. the Mirror DBMS: crawl, extract via daemons, serve
	crawled, err := mediaserver.Crawl(mediaURL)
	if err != nil {
		return err
	}
	m, err := core.New()
	if err != nil {
		return err
	}
	for _, it := range crawled {
		img, err := mediaserver.DecodeItemImage(it)
		if err != nil {
			return err
		}
		if err := m.AddImage(it.URL, it.Annotation, img); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "robot crawled %d items; running pipeline via daemons...\n", m.Size())
	opts := core.DefaultIndexOptions()
	if err := m.BuildContentIndexDistributed(opts, dictAddr); err != nil {
		return err
	}
	dbmsAddr, stopDBMS, err := m.Serve("127.0.0.1:0", dictAddr)
	if err != nil {
		return err
	}
	defer stopDBMS()
	fmt.Fprintf(w, "Mirror DBMS         %s\n", dbmsAddr)

	// 5. a client: discover the DBMS through the dictionary, query it
	client, err := core.DiscoverMirror(dictAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	schema, err := client.Schema()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nclient sees schema:\n%s\n", schema)

	dual, err := client.Run(core.Query{Stmt: core.StmtDual, Text: "forest", K: 5})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "client dual-coding query \"forest\":")
	for i, h := range dual.Hits {
		fmt.Fprintf(w, "  %d. %-40s %.4f\n", i+1, h.URL, h.Score)
	}

	reply, err := client.MoaQuery(`count(ImageLibraryInternal);`, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nclient Moa query count(ImageLibraryInternal) = %s\n", reply.Scalar)
	return nil
}
