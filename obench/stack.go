package main

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// stackConfig is the deployment a workload runs on. It holds only the
// configuration the system keeps: shards, the batch shape R/bread/bwrite,
// Δ, the ORAM's Z/S/A, and the LogHeap durable format.
type stackConfig struct {
	Shards         int
	NumBlocks      int // per shard
	Z, S, A        int
	KeySize        int
	ValueSize      int
	ReadBatches    int           // R
	ReadBatchSize  int           // bread
	WriteBatchSize int           // bwrite
	Delta          time.Duration // Δ
	Durable        bool          // 2-shard LogHeap DiskGroup behind loopback storage servers
	Wire           bool          // clients speak mux v2 over one TCP connection
}

// stack is one running deployment plus the probes wrapped around each
// layer boundary. Probes persist across a crash and reopen.
type stack struct {
	cfg     stackConfig
	dir     string // durable data dir
	key     *cryptoutil.Key
	tracing atomic.Bool
	proxyP  atomic.Pointer[core.Proxy]

	cliStore, srvStore *storeProbe // proxy's view / storage server's view
	cliDB, srvDB       *dbProbe    // load generator's view / proxy's kvtxn.DB
	wire               wireCounter

	mem     []storage.Backend // in-memory shards, server-side wrapped; survive a proxy crash
	group   *storage.DiskGroup
	servers []*storage.Server
	stores  []storage.Backend // what the proxy runs on (client-side wrapped)
	proxy   *core.Proxy
	proto   *clientproto.Server
	mux     *clientproto.MuxClient
	db      kvtxn.DB // what the load generator calls
}

func (c stackConfig) params() ringoram.Params {
	return ringoram.Params{
		NumBlocks: c.NumBlocks, Z: c.Z, S: c.S, A: c.A,
		KeySize: c.KeySize, ValueSize: c.ValueSize,
	}
}

func newStack(cfg stackConfig, dir string, origin time.Time) *stack {
	s := &stack{cfg: cfg, dir: dir, key: cryptoutil.KeyFromSeed([]byte("obench"))}
	epochOf := func() uint64 {
		if p := s.proxyP.Load(); p != nil {
			return p.Epoch()
		}
		return 0
	}
	s.cliStore = newStoreProbe(origin, &s.tracing, epochOf)
	s.srvStore = newStoreProbe(origin, &s.tracing, epochOf)
	s.cliDB = newDBProbe(sideClient, origin, &s.tracing)
	s.srvDB = newDBProbe(sideServer, origin, &s.tracing)
	return s
}

// open brings the deployment up: fresh on first call, §8 recovery over the
// same storage after a crash.
func (s *stack) open() error {
	numBuckets := s.cfg.params().Geometry().NumBuckets
	s.stores = make([]storage.Backend, s.cfg.Shards)
	if s.cfg.Durable {
		g, err := storage.OpenDiskGroupOpts(s.dir, s.cfg.Shards, numBuckets, storage.DiskOptions{LogHeap: true})
		if err != nil {
			return fmt.Errorf("opening disk group: %w", err)
		}
		s.group = g
		for i, view := range g.Backends() {
			srv, err := storage.NewServer(wrapStore(view, i, s.srvStore), "127.0.0.1:0")
			if err != nil {
				return err
			}
			s.servers = append(s.servers, srv)
			cl, err := storage.Dial(srv.Addr())
			if err != nil {
				return err
			}
			s.stores[i] = wrapStore(cl, i, s.cliStore)
		}
	} else {
		if s.mem == nil {
			for i := 0; i < s.cfg.Shards; i++ {
				s.mem = append(s.mem, wrapStore(storage.NewMemBackend(numBuckets), i, s.srvStore))
			}
		}
		for i, m := range s.mem {
			s.stores[i] = wrapStore(m, i, s.cliStore)
		}
	}
	p, err := core.NewSharded(s.stores, core.Config{
		Params:         s.cfg.params(),
		Key:            s.key,
		ReadBatches:    s.cfg.ReadBatches,
		ReadBatchSize:  s.cfg.ReadBatchSize,
		WriteBatchSize: s.cfg.WriteBatchSize,
		BatchInterval:  s.cfg.Delta,
	})
	if err != nil {
		return fmt.Errorf("starting proxy: %w", err)
	}
	s.proxy = p
	s.proxyP.Store(p)
	var srvDB kvtxn.DB = timedDB{inner: kvtxn.ProxyDB{P: p}, p: s.srvDB}
	if !s.cfg.Wire {
		s.db = timedDB{inner: srvDB, p: s.cliDB}
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.proto = clientproto.NewServerListener(srvDB, countingListener{Listener: ln, c: &s.wire})
	mux, err := clientproto.DialMux(ln.Addr().String())
	if err != nil {
		return err
	}
	s.mux = mux
	s.db = timedDB{inner: clientproto.MuxDB{C: mux}, p: s.cliDB}
	return nil
}

// crash stops the proxy without draining it (the unfinished epoch's
// transactions abort, as in a kill), then shuts the storage side down.
// Storage state stays: the in-memory shards are kept, the durable group
// is reopened from its directory.
func (s *stack) crash() {
	if s.mux != nil {
		s.mux.Close()
		s.mux = nil
	}
	if s.proto != nil {
		s.proto.Close()
		s.proto = nil
	}
	if s.proxy != nil {
		s.proxy.Close()
		s.proxy = nil
		s.proxyP.Store(nil)
	}
	if s.cfg.Durable {
		for _, st := range s.stores {
			st.Close()
		}
		for _, srv := range s.servers {
			srv.Close()
		}
		s.servers = nil
		if s.group != nil {
			s.group.Close()
			s.group = nil
		}
	}
	s.stores = nil
}

// close tears the deployment down for good.
func (s *stack) close() {
	s.crash()
	for _, m := range s.mem {
		m.Close()
	}
	s.mem = nil
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// wireCounter counts client-protocol bytes in both directions.
type wireCounter struct{ bytes atomic.Int64 }

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytes.Add(int64(n))
	return n, err
}
