//! Exact-path request routing with stable route labels.
//!
//! Routes are `(method, path)` pairs; the registered path doubles as the
//! route label on `http.requests{route,code}` and the per-route latency
//! histogram. Unmatched paths share the single label `unmatched` so a
//! scanner cannot explode metric cardinality.

use crate::http::{Request, Response};
use std::sync::Arc;

/// A request handler.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct Route {
    method: &'static str,
    path: &'static str,
    handler: Handler,
}

struct PrefixRoute {
    method: &'static str,
    prefix: &'static str,
    label: &'static str,
    handler: Handler,
}

/// An exact-path router.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    prefix_routes: Vec<PrefixRoute>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers `handler` for `method` on the exact path `path`
    /// (builder style).
    pub fn route(
        mut self,
        method: &'static str,
        path: &'static str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push(Route {
            method,
            path,
            handler: Arc::new(handler),
        });
        self
    }

    /// Registers `handler` for paths strictly longer than `prefix` that
    /// start with it (builder style) — `/v1/debug/requests/<id>` and
    /// the like. The handler extracts the remainder from the request
    /// path itself; `label` is the stable route label every match
    /// reports, so a scanner probing ids cannot explode metric
    /// cardinality. Exact routes win over prefix routes.
    pub fn prefix_route(
        mut self,
        method: &'static str,
        prefix: &'static str,
        label: &'static str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.prefix_routes.push(PrefixRoute {
            method,
            prefix,
            label,
            handler: Arc::new(handler),
        });
        self
    }

    /// Dispatches `request`, returning the route label (the registered
    /// path, or `unmatched`) and the response: the handler's on a match,
    /// 405 when the path exists under a different method, 404 otherwise.
    pub fn dispatch(&self, request: &Request) -> (&'static str, Response) {
        let mut path_seen = false;
        for route in &self.routes {
            if route.path != request.path {
                continue;
            }
            if route.method == request.method {
                return (route.path, (route.handler)(request));
            }
            path_seen = true;
        }
        for route in &self.prefix_routes {
            let matches =
                request.path.len() > route.prefix.len() && request.path.starts_with(route.prefix);
            if !matches {
                continue;
            }
            if route.method == request.method {
                return (route.label, (route.handler)(request));
            }
            path_seen = true;
        }
        if path_seen {
            // Report the label of the real path: the client got the
            // method wrong, not the route.
            return (
                self.label(request),
                Response::text(405, "method not allowed\n"),
            );
        }
        ("unmatched", Response::text(404, "not found\n"))
    }

    /// The route label `request` addresses whatever its method: the
    /// registered path or prefix label, else `unmatched`.
    pub fn label(&self, request: &Request) -> &'static str {
        self.routes
            .iter()
            .find(|r| r.path == request.path)
            .map(|r| r.path)
            .or_else(|| {
                self.prefix_routes
                    .iter()
                    .find(|r| {
                        request.path.len() > r.prefix.len() && request.path.starts_with(r.prefix)
                    })
                    .map(|r| r.label)
            })
            .unwrap_or("unmatched")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
            minor_version: 1,
        }
    }

    #[test]
    fn routes_by_method_and_exact_path() {
        let router = Router::new()
            .route("GET", "/a", |_| Response::text(200, "get-a"))
            .route("POST", "/a", |_| Response::text(200, "post-a"))
            .route("GET", "/b", |_| Response::text(200, "get-b"));
        let (label, response) = router.dispatch(&request("GET", "/a"));
        assert_eq!(
            (label, response.body.as_slice()),
            ("/a", b"get-a".as_slice())
        );
        let (_, response) = router.dispatch(&request("POST", "/a"));
        assert_eq!(response.body, b"post-a");
        let (label, response) = router.dispatch(&request("DELETE", "/b"));
        assert_eq!((label, response.status), ("/b", 405));
        let (label, response) = router.dispatch(&request("GET", "/nope"));
        assert_eq!((label, response.status), ("unmatched", 404));
        let (_, response) = router.dispatch(&request("GET", "/a/"));
        assert_eq!(response.status, 404, "exact match only");
    }

    #[test]
    fn prefix_routes_match_under_one_stable_label() {
        let router = Router::new()
            .route("GET", "/v1/debug/requests", |_| Response::text(200, "list"))
            .prefix_route(
                "GET",
                "/v1/debug/requests/",
                "/v1/debug/requests/:id",
                |req| {
                    let id = req.path.rsplit('/').next().unwrap_or("");
                    Response::text(200, format!("detail {id}"))
                },
            );
        // The exact route still owns the bare path.
        let (label, response) = router.dispatch(&request("GET", "/v1/debug/requests"));
        assert_eq!(
            (label, response.body.as_slice()),
            ("/v1/debug/requests", b"list".as_slice())
        );
        // Any id maps to the one registered label.
        let (label, response) = router.dispatch(&request("GET", "/v1/debug/requests/abc-123"));
        assert_eq!(label, "/v1/debug/requests/:id");
        assert_eq!(response.body, b"detail abc-123");
        // The bare prefix itself (empty remainder) is not a match.
        let (label, response) = router.dispatch(&request("GET", "/v1/debug/requests/"));
        assert_eq!((label, response.status), ("unmatched", 404));
        // Wrong method reports the prefix label with a 405.
        let (label, response) = router.dispatch(&request("POST", "/v1/debug/requests/abc"));
        assert_eq!((label, response.status), ("/v1/debug/requests/:id", 405));
    }
}
